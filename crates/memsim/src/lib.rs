//! # gdr-memsim — memory-system models
//!
//! Cycle-level memory substrates for the GDR-HGNN reproduction:
//!
//! * [`hbm`] — transaction-level HBM/GDDR DRAM model (the Ramulator
//!   substitute): channels, banks, open-row tracking, DDR timing and
//!   bandwidth accounting.
//! * [`buffer`] — set-associative on-chip buffer (LRU/FIFO), the NA
//!   buffer model, and the GPU L2 model that counts write-once lines
//!   instead of storing them.
//! * [`fifo`] — bounded hardware FIFOs with stall/occupancy accounting.
//! * [`hashtable`] — the Decoupler's set-associative hash table.
//! * [`cacti_lite`] — analytic area / power estimation at TSMC 12 nm
//!   (the CACTI + Synopsys substitute).
//!
//! # Examples
//!
//! ```
//! use gdr_memsim::hbm::{HbmConfig, HbmModel, MemRequest};
//!
//! let mut hbm = HbmModel::new(HbmConfig::hbm1_512gbps());
//! let makespan = hbm.drain_trace(0, (0..64).map(|i| MemRequest::read(i * 256, 256)));
//! assert!(makespan > 0);
//! assert!(hbm.bandwidth_utilization(makespan) <= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod cacti_lite;
pub mod fifo;
pub mod hashtable;
pub mod hbm;

pub use buffer::{Access, BufferStats, Replacement, SetAssocBuffer, WriteOnceLru};
pub use cacti_lite::{CactiLite, MacroEstimate, TechNode};
pub use fifo::{FifoStats, HwFifo};
pub use hashtable::{HashTable, HashTableStats};
pub use hbm::{HbmConfig, HbmModel, HbmStats, MemRequest};
