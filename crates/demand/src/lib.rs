//! # divrel-demand
//!
//! Demand spaces, failure regions and operational profiles — the substrate
//! behind §2.1 and Fig 2 of Popov & Strigini (DSN 2001).
//!
//! The paper's model abstracts programs into *failure regions* of a *demand
//! space*: a fault, if introduced, makes a whole set of demands fail, and
//! the fault's contribution `qᵢ` to unreliability is the operational-
//! profile probability of that set. This crate makes those objects
//! concrete and measurable:
//!
//! * [`space::GridSpace2D`] — a finite two-dimensional demand space (each
//!   demand is a reading of two input variables, exactly as in Fig 2);
//! * [`region::Region`] — failure-region shapes reported in the literature
//!   the paper cites \[9, 10, 11\]: rectangles, scattered points, regular
//!   point/line arrays, and unions thereof;
//! * [`profile::Profile`] — probability distributions over demands, with
//!   alias-method sampling;
//! * [`mapping::FaultRegionMap`] — the fault → region mapping, including
//!   the *overlapping regions* (§6.2) and *many-to-one* (§6.3) violations
//!   of the core model's assumptions, quantified rather than assumed away;
//! * [`version::ProgramVersion`] — a version as a set of introduced
//!   faults, with both its **true** PFD (measure of the union of its
//!   regions) and its **modelled** PFD (sum of `qᵢ`), whose gap is the
//!   paper's §6.2 pessimism;
//! * [`fault_set::FaultSet`] — the word-packed bitset behind
//!   `ProgramVersion` and the Monte-Carlo fast path: set algebra as
//!   AND/OR + popcount, evaluated against `FaultRegionMap`'s
//!   precomputed per-cell failure masks.
//!
//! ```
//! use divrel_demand::{
//!     mapping::FaultRegionMap, profile::Profile, region::Region, space::GridSpace2D,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let space = GridSpace2D::new(100, 100)?;
//! let profile = Profile::uniform(&space);
//! let map = FaultRegionMap::new(
//!     space,
//!     vec![
//!         Region::rect(10, 10, 19, 19),       // a blob
//!         Region::lattice(50, 50, 7, 0, 5),   // an array of isolated points
//!     ],
//! )?;
//! let q = map.q_values(&profile);
//! assert!((q[0] - 0.01).abs() < 1e-12);  // 100 cells / 10_000
//! assert!((q[1] - 0.0005).abs() < 1e-12); // 5 cells / 10_000
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod difficulty;
pub mod error;
pub mod fault_set;
pub mod mapping;
pub mod profile;
pub mod region;
pub mod render;
pub mod space;
pub mod version;

pub use difficulty::DifficultyFunction;

pub use error::DemandError;
pub use fault_set::FaultSet;
pub use mapping::FaultRegionMap;
pub use profile::Profile;
pub use region::Region;
pub use space::{Demand, GridSpace2D};
pub use version::ProgramVersion;
