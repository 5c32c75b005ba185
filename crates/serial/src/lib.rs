//! Serial test-access fabrics for distributed e-SRAM diagnosis.
//!
//! The DATE 2005 paper's architectural contribution is to replace the
//! bi-directional serial interface of \[7,8\] with a per-memory pair of
//! converters:
//!
//! * [`SerialToParallelConverter`] (SPC, Fig. 4) — receives the test
//!   pattern serially from the shared Data Background Generator and
//!   applies it to the memory in parallel. Delivered and converted
//!   MSB-first so that memories narrower than the widest one still
//!   receive the correct low-order background bits (Sec. 3.2).
//! * [`ParallelToSerialConverter`] (PSC, Fig. 5) — captures the memory's
//!   read response in parallel into scan flip-flops and shifts it back to
//!   the BISD controller serially while the memory idles, so the shift
//!   path never passes through memory cells and no fault can mask
//!   another (Sec. 3.3).
//!
//! The crate also models the two interfaces the paper compares against:
//!
//! * [`BidirectionalSerialInterface`] (Fig. 2, the baseline of \[7,8\]) —
//!   test data shifts *through* the memory cells, every operation costs
//!   one cycle per bit, and a March element can pinpoint at most one
//!   faulty cell per shift direction, which makes total diagnosis time
//!   proportional to the number of faults.
//! * [`SingleDirectionalSerialInterface`] (\[9,10\]) — the older scan-style
//!   interface in which a faulty cell corrupts all data shifted through
//!   it, so a fault can *mask* downstream faults entirely.
//!
//! # Example
//!
//! ```
//! use serial::{SerialToParallelConverter, ShiftOrder};
//! use sram_model::DataWord;
//!
//! // Widest memory has 4 IO bits, this one has 3: MSB-first delivery of
//! // the widest pattern still leaves the correct low bits in the SPC.
//! let pattern = DataWord::from_u64(0b0111, 4);
//! let mut spc = SerialToParallelConverter::new(3);
//! spc.deliver(&pattern, ShiftOrder::MsbFirst);
//! assert_eq!(spc.parallel_out(), DataWord::from_u64(0b111, 3));
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod bidirectional;
pub mod delivery;
pub mod psc;
pub mod single_directional;
pub mod spc;

pub use bidirectional::{first_unknown, BidirectionalSerialInterface, SerialElementOutcome, ShiftDirection};
pub use delivery::PatternDeliveryBus;
pub use psc::ParallelToSerialConverter;
pub use single_directional::SingleDirectionalSerialInterface;
pub use spc::{SerialToParallelConverter, ShiftOrder};
