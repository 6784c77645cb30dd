//! 2-D packet-switched mesh interconnect model for the `consim` CMP
//! simulator.
//!
//! The paper's machine (Table III) connects its 16 cores with a 2-D
//! packet-switched mesh using virtual-channel flow control, dimension-order
//! routing, and a 3-stage router pipeline with speculative virtual-channel
//! and switch allocation. [`contention::ContentionModel`] is a packet-level
//! model of that network: it walks a packet's XY path reserving link time,
//! so congestion (the paper's "interconnect latency is 20% lower for round
//! robin than affinity" effect) still emerges without simulating every
//! flit — full flit-level simulation of multi-million-reference runs would
//! be prohibitive (the same trade-off the paper discusses in its simulation
//! methodology section). Its link calendars ([`ReservationCalendar`]) also
//! model the engine's memory-controller bandwidth; `tests/calendar_reference.rs`
//! checks both, cycle for cycle, against a naive linear-scan calendar.
//!
//! [`topology::Mesh`] provides coordinates and XY routes, and
//! [`packet::Packet`] the two message sizes.
//!
//! # Examples
//!
//! ```
//! use consim_noc::topology::Mesh;
//! use consim_noc::contention::ContentionModel;
//! use consim_noc::packet::Packet;
//! use consim_types::{Cycle, NodeId};
//!
//! let mesh = Mesh::new(4, 4)?;
//! let mut noc = ContentionModel::new(mesh, 1, 3);
//! let packet = Packet::data(NodeId::new(0), NodeId::new(15));
//! let arrival = noc.send(&packet, Cycle::ZERO);
//! assert!(arrival > Cycle::ZERO);
//! # Ok::<(), consim_types::SimError>(())
//! ```

pub mod contention;
pub mod packet;
pub mod stats;
pub mod topology;

pub use contention::{ContentionModel, ReservationCalendar};
pub use packet::{Packet, PacketClass};
pub use stats::NocStats;
pub use topology::{Coord, Direction, Mesh};
