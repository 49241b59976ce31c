//! A deliberately naive legality checker: the differential reference
//! for [`mlv_grid::checker::check`].
//!
//! It checks the eight structural rules the obvious way, sequentially
//! over a materialized [`Layout`]: every footprint grid point goes into
//! a hash map, every occupied wire point into one sorted vector, and
//! each wire's points into a set to find the first one it revisits.
//! Memory is O(footprint area + wire points), so it suits small layouts
//! only — its worth is that it is easy to trust, and that it shares no
//! code with the run-based checker it judges. Its report (errors, their
//! order, the cap, the point totals) must equal the real checker's.
//!
//! This file is not a test target of its own. Test code includes it
//! with `#[path = "…/naive_checker.rs"] mod naive_checker;`; inside
//! `mlv-grid` the crate is in scope under its own name for tests.

use mlv_grid::path::PathError;
use mlv_grid::{CheckError, CheckReport, Layout, NodePlacement, Point3, WirePath};
use mlv_topology::{Graph, NodeId};
use std::collections::{HashMap, HashSet};

/// Check `layout` against the structural rules and, if `reference` is
/// given, against the graph's edge multiset.
pub fn naive_check(layout: &Layout, reference: Option<&Graph>) -> CheckReport {
    CheckReport {
        errors: naive_errors(layout, reference),
        wire_points: layout.wires.iter().map(|w| w.path.length() + 1).sum(),
        node_points: layout.nodes.iter().map(|n| n.rect.point_count()).sum(),
    }
}

/// The path rules point by point: the first segment that is not
/// axis-aligned, else the first point the walk visits twice.
fn path_error(path: &WirePath) -> Option<PathError> {
    let mut segments = path.corners().windows(2);
    if let Some(i) = segments.position(|w| !w[0].is_axis_aligned_with(&w[1])) {
        return Some(PathError::NotAxisAligned(i));
    }
    let mut seen = HashSet::new();
    path.points()
        .find(|p| !seen.insert(*p))
        .map(PathError::SelfIntersection)
}

fn naive_errors(layout: &Layout, reference: Option<&Graph>) -> Vec<CheckError> {
    let cap = CheckReport::ERROR_CAP;
    let mut errors = Vec::new();

    // footprints pairwise disjoint, pairs taken in (layer, x0) order
    let mut nodes: Vec<&NodePlacement> = layout.nodes.iter().collect();
    nodes.sort_by_key(|n| (n.layer, n.rect.x0));
    for (i, a) in nodes.iter().enumerate() {
        for b in &nodes[i + 1..] {
            if a.layer == b.layer && a.rect.intersects(&b.rect) {
                errors.push(CheckError::NodeOverlap {
                    a: a.node,
                    b: b.node,
                });
                if errors.len() >= cap {
                    return errors;
                }
            }
        }
    }

    // every footprint point, later placements overwriting earlier ones
    let mut owner: HashMap<Point3, NodeId> = HashMap::new();
    for n in &layout.nodes {
        for x in n.rect.x0..=n.rect.x1 {
            for y in n.rect.y0..=n.rect.y1 {
                owner.insert(Point3::new(x, y, n.layer), n.node);
            }
        }
    }
    let layer_of: HashMap<NodeId, i32> = layout.nodes.iter().map(|n| (n.node, n.layer)).collect();

    let layers = layout.layers as i32;
    for (i, w) in layout.wires.iter().enumerate() {
        if let Some(e) = path_error(&w.path) {
            errors.push(CheckError::BadPath {
                wire: i,
                reason: format!("{e:?}"),
            });
        } else {
            for c in w.path.corners() {
                if c.z < 0 || c.z >= layers {
                    errors.push(CheckError::LayerOutOfRange { wire: i, point: *c });
                }
            }
            for (node, pt) in [(w.u, w.path.start()), (w.v, w.path.end())] {
                match layer_of.get(&node) {
                    None => errors.push(CheckError::MissingNode { node }),
                    Some(&z) if pt.z != z || owner.get(&pt) != Some(&node) => {
                        errors.push(CheckError::BadTerminal {
                            wire: i,
                            node,
                            point: pt,
                        })
                    }
                    Some(_) => {}
                }
            }
            for p in w.path.points() {
                match owner.get(&p) {
                    Some(&o) if o != w.u && o != w.v => errors.push(CheckError::WireThroughNode {
                        wire: i,
                        node: o,
                        point: p,
                    }),
                    _ => {}
                }
            }
        }
        if errors.len() >= cap {
            errors.truncate(cap);
            return errors;
        }
    }

    // every occupied point, sorted: equal neighbours are conflicts
    let mut occupied: Vec<(Point3, usize)> = Vec::new();
    for (i, w) in layout.wires.iter().enumerate() {
        occupied.extend(w.path.points().map(|p| (p, i)));
    }
    occupied.sort_unstable();
    for pair in occupied.windows(2) {
        if pair[0].0 == pair[1].0 {
            errors.push(CheckError::WireConflict {
                a: pair[0].1,
                b: pair[1].1,
                point: pair[0].0,
            });
            if errors.len() >= cap {
                return errors;
            }
        }
    }

    if let Some(g) = reference {
        if layout.nodes.len() != g.node_count() {
            errors.push(CheckError::TopologyMismatch {
                detail: format!(
                    "{} nodes placed, graph has {}",
                    layout.nodes.len(),
                    g.node_count()
                ),
            });
        }
        let wires = layout.wire_multiset();
        let edges = g.edge_multiset();
        if wires != edges {
            let detail = match wires.iter().find(|(k, v)| edges.get(k) != Some(v)) {
                Some((k, v)) => format!(
                    "pair {k:?}: {v} wire(s) vs {} edge(s)",
                    edges.get(k).copied().unwrap_or(0)
                ),
                None => match edges.iter().find(|(k, _)| !wires.contains_key(k)) {
                    Some((k, v)) => format!("pair {k:?}: 0 wires vs {v} edge(s)"),
                    None => "multiset mismatch".to_string(),
                },
            };
            errors.push(CheckError::TopologyMismatch { detail });
        }
    }
    errors
}
