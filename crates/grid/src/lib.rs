//! # mlv-grid
//!
//! The **multilayer grid model** substrate of the ICPP 2000 reproduction
//! (Yeh, Varvarigos & Parhami, *Multilayer VLSI Layout for Interconnection
//! Networks*).
//!
//! A layout embeds a network in a 3-D grid with `L` wiring layers:
//!
//! * network **nodes** occupy axis-aligned rectangles of grid points on
//!   the first ("active") layer `z = 0` — the *multilayer 2-D grid model*
//!   of paper §2.2;
//! * network **edges** become rectilinear **wires**: paths along grid
//!   lines that must be pairwise **node-disjoint** (no two wires may share
//!   even a grid point — the paper: "cannot cross or overlap with each
//!   other");
//! * the **area** is the smallest upright bounding rectangle of all nodes
//!   and wires in the x–y plane; the **volume** is `L · area`.
//!
//! This crate provides the geometry ([`geom`]), wire paths ([`path`]),
//! the layout container ([`layout`]), the legality checker
//! ([`checker`]) over any layout source that can be walked without
//! materializing it ([`streaming`]), layout metrics ([`metrics`]), the
//! analytic folded-Thompson baseline ([`fold`]), and ASCII renderers
//! ([`render`]) used to regenerate the paper's figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Lets test code shared with other crates name this crate `mlv_grid`.
#[cfg(test)]
extern crate self as mlv_grid;

pub mod analytics;
pub mod checker;
pub mod fold;
pub mod geom;
pub mod hasher;
pub mod io;
pub mod layout;
pub mod metrics;
pub mod path;
pub mod pdk;
pub mod render;
pub mod streaming;
pub mod svg;

pub use checker::{check, CheckError, CheckReport};
pub use geom::{Point3, Rect};
pub use layout::{Layout, NodePlacement, Wire};
pub use metrics::{LayoutMetrics, PhysicalMetrics};
pub use path::WirePath;
pub use pdk::{DbUnits, Dir, Pdk, PdkLayer};
pub use streaming::{metrics_stream, StreamSource};
