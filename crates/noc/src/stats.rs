//! Network statistics.

use crate::packet::{Packet, PacketClass};
use consim_snap::{SectionBuf, SectionReader, Snapshot};
use consim_types::cycles::LatencyAccumulator;
use consim_types::SimError;
use std::fmt;

/// Network counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Packets injected (accepted for transport). The counter audit checks
    /// `injected == packets` at end of run: a gap means the model lost a
    /// packet between acceptance and delivery accounting.
    pub injected: u64,
    /// Packets delivered.
    pub packets: u64,
    /// Flits delivered.
    pub flits: u64,
    /// Control packets delivered.
    pub control_packets: u64,
    /// Data packets delivered.
    pub data_packets: u64,
    /// Sum of hop counts.
    pub total_hops: u64,
    /// End-to-end packet latencies.
    pub latency: LatencyAccumulator,
}

impl NocStats {
    /// Records one delivered packet.
    pub fn record(&mut self, packet: &Packet, hops: usize, latency: u64) {
        self.packets += 1;
        self.flits += packet.flits() as u64;
        match packet.class {
            PacketClass::Control => self.control_packets += 1,
            PacketClass::Data => self.data_packets += 1,
        }
        self.total_hops += hops as u64;
        self.latency.record(latency);
    }

    /// Mean end-to-end latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Mean hops per packet.
    pub fn mean_hops(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.packets as f64
        }
    }
}

impl Snapshot for NocStats {
    fn save(&self, w: &mut SectionBuf) {
        w.put_u64(self.injected);
        w.put_u64(self.packets);
        w.put_u64(self.flits);
        w.put_u64(self.control_packets);
        w.put_u64(self.data_packets);
        w.put_u64(self.total_hops);
        self.latency.save(w);
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError> {
        self.injected = r.get_u64()?;
        self.packets = r.get_u64()?;
        self.flits = r.get_u64()?;
        self.control_packets = r.get_u64()?;
        self.data_packets = r.get_u64()?;
        self.total_hops = r.get_u64()?;
        self.latency.restore(r)
    }
}

impl fmt::Display for NocStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "packets={} (ctrl {}, data {}) flits={} mean hops={:.2} mean latency={:.2}cy",
            self.packets,
            self.control_packets,
            self.data_packets,
            self.flits,
            self.mean_hops(),
            self.mean_latency(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consim_types::NodeId;

    #[test]
    fn record_accumulates() {
        let mut s = NocStats::default();
        s.record(&Packet::control(NodeId::new(0), NodeId::new(1)), 1, 4);
        s.record(&Packet::data(NodeId::new(0), NodeId::new(2)), 2, 12);
        assert_eq!(s.injected, 0, "record() only counts deliveries");
        assert_eq!(s.packets, 2);
        assert_eq!(s.control_packets, 1);
        assert_eq!(s.data_packets, 1);
        assert_eq!(s.flits, 6);
        assert_eq!(s.mean_hops(), 1.5);
        assert_eq!(s.mean_latency(), 8.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = NocStats::default();
        assert_eq!(s.mean_hops(), 0.0);
        assert_eq!(s.mean_latency(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let mut s = NocStats::default();
        s.record(&Packet::control(NodeId::new(0), NodeId::new(1)), 1, 4);
        let text = s.to_string();
        assert!(text.contains("packets=1"));
        assert!(text.contains("latency"));
    }
}
