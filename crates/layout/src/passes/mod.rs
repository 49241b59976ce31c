//! The staged realization pipeline: an explicit layout IR threaded
//! through four passes.
//!
//! ```text
//!   OrthogonalSpec + PassConfig
//!        │
//!        ▼
//!   placement  — wire classification (row/col/jog, slab-crossing),
//!        │       node footprint sizing from terminal demand, and the
//!        │       terminal slot discipline (arrive < jog < depart)
//!        ▼
//!   tracks     — shared track grouping: round-robin bundling of
//!        │       construction tracks over ⌊L/2⌋ groups, closed-interval
//!        │       jog colouring, riser allocation, per-gap widths
//!        ▼
//!   layers     — odd/even group-to-layer assignment (x-runs on layer
//!        │       2g, y-runs on 2g+1), slab z-bases for the 3-D model
//!        ▼
//!   emit       — concrete geometry: prefix-sum gap origins and one
//!        │       tile instance per wire
//!        ▼
//!   crate::tiled::TiledLayout
//! ```
//!
//! Both tiled realizers are thin drivers over this pipeline:
//! [`crate::tiled::realize_tiled`] runs it with a single slab
//! (`L_A = 1`) and [`crate::tiled::realize_tiled_3d`] with `L_A ≥ 1`
//! slabs — the 2-D scheme *is* the 1-slab special case, so the two do
//! not duplicate the track and terminal machinery. The flat
//! [`mlv_grid::Layout`] is derived from the tiles on demand
//! ([`crate::tiled::TiledLayout::materialize`]).
//!
//! The IR is **struct-of-arrays**: every pass reads and writes flat
//! index vectors inside one reusable `crate::arena::Scratch`
//! (terminal slots indexed `2·ki + hi_end`, track/layer assignments
//! parallel to `kinds`, packed sort records for the terminal and
//! colouring disciplines). Per-stage products stay explicit — they are
//! just columns of the scratch instead of per-pass structs — so
//! alternative track-assignment passes can still be swapped in, while
//! a reused scratch leaves the emitted tiles as the only steady-state
//! allocation.

pub(crate) mod emit;
pub(crate) mod geometry;
pub(crate) mod layers;
pub(crate) mod placement;
pub(crate) mod tracks;

use crate::arena::Scratch;
use crate::realize::JogStrategy;
use crate::spec::OrthogonalSpec;
use crate::tiled::TiledLayout;
use mlv_grid::pdk::{Dir, Pdk};

/// Pipeline configuration shared by every pass.
#[derive(Clone, Debug)]
pub(crate) struct PassConfig {
    /// Total wiring layers `L`.
    pub layers: usize,
    /// Active layers `L_A` (1 for the 2-D multilayer grid model).
    pub active_layers: usize,
    /// Node footprint override (≥ the computed terminal demand).
    pub node_side: Option<usize>,
    /// Jog distribution strategy (ablation knob, 2-D driver only).
    pub jog_strategy: JogStrategy,
    /// Name for the emitted layout.
    pub layout_name: String,
    /// Technology stack to realize onto. `None` (or any stack with
    /// [`Pdk::is_uniform`]) is the paper's unit grid and leaves the
    /// pipeline byte-identical to the PDK-free path.
    pub pdk: Option<Pdk>,
}

impl PassConfig {
    /// Wiring layers available to one slab (`L / L_A`).
    pub fn slab_layers(&self) -> usize {
        self.layers / self.active_layers
    }
}

/// Technology context derived once per realization from
/// [`PassConfig::pdk`] and consumed by the tracks / layers / emit
/// passes. For the uniform stack (`pdk: None` or [`Pdk::is_uniform`])
/// every field degenerates to the legacy unit-grid values, so the
/// passes produce byte-identical output by construction.
#[derive(Clone, Debug)]
pub(crate) struct PassContext {
    /// Track groups per slab under the stack's direction budget:
    /// `min` over slabs of `min(|h|, |v|)`. For the uniform stack this
    /// is `⌊(L/L_A)/2⌋` — for odd per-slab budgets the top layer is
    /// left unused, the paper's `L² − 1` odd-L denominators.
    pub groups: usize,
    /// Horizontal track pitch (column-gap scale). 1 for uniform.
    pub xscale: i64,
    /// Vertical track pitch (row-gap scale). 1 for uniform.
    pub yscale: i64,
    /// Per-slab layers carrying x-runs, `h[slab][g]`, ascending z.
    /// Uniform: `zbase + 2g` — the legacy even layers.
    pub h: Vec<Vec<i32>>,
    /// Per-slab layers carrying y-runs, `v[slab][g]`, ascending z.
    /// Uniform: `zbase + 2g + 1` — the legacy odd layers.
    pub v: Vec<Vec<i32>>,
    /// Stack name used to tag pass spans; `None` for uniform stacks
    /// (keeps trace digests of PDK-free runs unchanged).
    pub tag: Option<String>,
}

impl PassContext {
    /// Derive the context for one realization. Panics if the stack
    /// starves a slab of either direction (no legal group exists).
    pub fn new(cfg: &PassConfig) -> PassContext {
        let slab_layers = cfg.slab_layers();
        let pdk = cfg.pdk.as_ref().filter(|p| !p.is_uniform());
        let mut h = Vec::with_capacity(cfg.active_layers);
        let mut v = Vec::with_capacity(cfg.active_layers);
        for slab in 0..cfg.active_layers {
            let zb = (slab * slab_layers) as i32;
            let (mut hs, mut vs) = (Vec::new(), Vec::new());
            for dz in 0..slab_layers {
                let z = zb + dz as i32;
                let dir = pdk.map_or(Dir::Any, |p| p.layer_at(z as usize).dir);
                match dir {
                    Dir::H => hs.push(z),
                    Dir::V => vs.push(z),
                    // Balance free layers, ties to h: reproduces the
                    // legacy even/odd split when every layer is free.
                    Dir::Any => {
                        if hs.len() <= vs.len() {
                            hs.push(z);
                        } else {
                            vs.push(z);
                        }
                    }
                }
            }
            h.push(hs);
            v.push(vs);
        }
        let groups = h
            .iter()
            .zip(&v)
            .map(|(hs, vs)| hs.len().min(vs.len()))
            .min()
            .unwrap_or(0);
        assert!(
            groups >= 1,
            "stack {:?} leaves a slab without an H/V layer pair \
             (L={}, L_A={})",
            cfg.pdk.as_ref().map(|p| p.name.as_str()),
            cfg.layers,
            cfg.active_layers,
        );
        let (xscale, yscale, tag) = match pdk {
            Some(p) => (
                p.xscale(cfg.layers),
                p.yscale(cfg.layers),
                Some(p.name.clone()),
            ),
            None => (1, 1, None),
        };
        PassContext {
            groups,
            xscale,
            yscale,
            h,
            v,
            tag,
        }
    }
}

/// Open one [`PASS_SPANS`] span, tagged with the stack name for
/// non-uniform PDKs (`pass.emit{pdk=hv6}`) so trace digests
/// distinguish stacks; plain key — unchanged digests — otherwise.
fn pass_span(key: &'static str, ctx: &PassContext) -> mlv_core::trace::SpanGuard {
    match ctx.tag.as_deref() {
        Some(name) => mlv_core::trace::span_with(key, &[("pdk", &name as &dyn std::fmt::Display)]),
        None => mlv_core::trace::span(key),
    }
}

/// Wire classification produced by the placement pass. Indices point
/// into the spec's `row_wires` / `col_wires` / `jog_wires`; the `Inter`
/// variants mark slab-crossing wires that must ride a riser.
#[derive(Clone, Copy, Debug)]
pub(crate) enum WireKind {
    /// Same-row link in the row's horizontal bundle.
    Row { idx: usize },
    /// Same-column link within one slab.
    Col { idx: usize },
    /// Cross link within one slab (vertical run + horizontal run).
    Jog { idx: usize },
    /// Column wire whose endpoints land in different slabs.
    InterCol { idx: usize },
    /// Jog wire whose endpoints land in different slabs.
    InterJog { idx: usize },
}

impl WireKind {
    /// Endpoints `(a_row, a_col, b_row, b_col)` of a slab-crossing
    /// wire; `None` for intra-slab kinds.
    pub fn inter_ends(&self, spec: &OrthogonalSpec) -> Option<(usize, usize, usize, usize)> {
        match *self {
            WireKind::InterCol { idx } => {
                let w = &spec.col_wires[idx];
                Some((w.lo, w.col, w.hi, w.col))
            }
            WireKind::InterJog { idx } => {
                let w = &spec.jog_wires[idx];
                Some((w.a.0, w.a.1, w.b.0, w.b.1))
            }
            _ => None,
        }
    }
}

/// Row-block-to-slab mapping: rows are cut into `L_A` contiguous blocks
/// of `slots` rows; block `a` stacks as the slab based at layer
/// `a·L/L_A` (trivial for `L_A = 1`: every row in slab 0).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SlabMap {
    /// Planar row slots shared by the stacked blocks.
    pub slots: usize,
    /// Wiring layers per slab (`L / L_A`).
    pub slab_layers: usize,
}

impl SlabMap {
    /// Slab (row block) of grid row `r`.
    pub fn slab_of(&self, r: usize) -> usize {
        r / self.slots
    }

    /// Planar row slot of grid row `r` within its slab.
    pub fn slot_of(&self, r: usize) -> usize {
        r % self.slots
    }

    /// Bottom (active) layer of slab `a`.
    pub fn zbase(&self, a: usize) -> i32 {
        (a * self.slab_layers) as i32
    }
}

/// Span key of the whole pipeline (wraps the four pass spans).
pub const SPAN_PIPELINE: &str = "pipeline";
/// Span keys of the four passes, in pipeline order.
pub const PASS_SPANS: [&str; 4] = ["pass.placement", "pass.tracks", "pass.layers", "pass.emit"];

/// Run the full pipeline into the tiled IR: placement → tracks →
/// layers → emit, filling (and reusing) the caller's [`Scratch`]. Each
/// stage runs under its [`PASS_SPANS`] span (inert unless a trace is
/// installed), with the whole pipeline wrapped in [`SPAN_PIPELINE`].
pub(crate) fn run_pipeline(
    spec: &OrthogonalSpec,
    cfg: &PassConfig,
    s: &mut Scratch,
) -> TiledLayout {
    let _pipeline = mlv_core::span!(SPAN_PIPELINE);
    let ctx = PassContext::new(cfg);
    {
        let _s = pass_span(PASS_SPANS[0], &ctx);
        placement::run(spec, cfg, s);
    }
    {
        let _s = pass_span(PASS_SPANS[1], &ctx);
        tracks::run(spec, cfg, &ctx, s);
    }
    {
        let _s = pass_span(PASS_SPANS[2], &ctx);
        layers::run(spec, &ctx, s);
    }
    let _s = pass_span(PASS_SPANS[3], &ctx);
    emit::run(spec, cfg, &ctx, s)
}
