//! # mlv-layout
//!
//! The paper's primary contribution (Yeh, Varvarigos & Parhami,
//! *Multilayer VLSI Layout for Interconnection Networks*, ICPP 2000):
//! the **orthogonal multilayer layout scheme** and the **recursive grid
//! layout scheme**, together with per-family layout generators for every
//! network the paper treats.
//!
//! ## Pipeline
//!
//! 1. An [`spec::OrthogonalSpec`] describes a 2-D *orthogonal layout*
//!    abstractly: nodes on a rows×cols grid, **row wires** (links between
//!    nodes of one row, in that row's horizontal track bundle), **col
//!    wires** (links within a column, in that column's vertical bundle),
//!    and **jog wires** (links whose endpoints share neither row nor
//!    column — they take one vertical track plus one horizontal track,
//!    as in the recursive grid scheme's block-to-node splicing).
//! 2. [`product`] builds specs for Cartesian products from two collinear
//!    layouts — rows realize the first factor, columns the second
//!    (paper §3.1/§3.2).
//! 3. [`pncluster`] builds specs for PN clusters by *flattening*: each
//!    quotient node expands into a run of member columns carrying the
//!    cluster's own collinear layout, with inter-cluster links attached
//!    to their member nodes (paper §2.3/§3.2).
//! 4. [`mod@realize`] turns a spec plus a layer count `L` into a concrete
//!    [`mlv_grid::Layout`]: tracks are split round-robin into `⌊L/2⌋`
//!    groups, group `g`'s x-runs go to layer `2g` and its y-runs to
//!    layer `2g+1` (the paper's odd/even layer assignment), terminals
//!    are ordered so that touching same-track wires never collide, and
//!    the result passes the `mlv-grid` legality checker.
//! 5. [`families`] wires it all together, one constructor per network
//!    family, each returning the reference graph and a checker-clean
//!    layout.
//!
//! [`baseline`] adds the comparison points of §2.2: the Thompson layout
//! (this scheme at `L = 2`) and the folded / multilayer-collinear
//! estimates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod arena;
pub mod baseline;
pub mod engine;
pub mod families;
pub mod passes;
pub mod pncluster;
pub mod product;
pub mod realize;
pub mod realize3d;
pub mod registry;
pub mod scheme;
pub mod spec;
pub mod tiled;

pub use realize::{realize, RealizeOptions};
pub use spec::{ColWire, JogWire, OrthogonalSpec, RowWire};
pub use tiled::{realize_tiled, realize_tiled_3d, TileInstance, TileShape, TiledLayout};
