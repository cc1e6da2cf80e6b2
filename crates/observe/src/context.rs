//! The packed flow-id discipline.
//!
//! Every simulated message is stamped at both ends with one 64-bit flow
//! id so the sending and receiving slices can be connected in a merged
//! trace:
//!
//! ```text
//! bits 63..52   src rank   (12 bits, ranks < 4096)
//! bits 51..40   dst rank   (12 bits)
//! bits 39..0    per-link sequence number (40 bits)
//! ```
//!
//! The per-link sequence number is already unique per `(src, dst)` pair
//! in the communicator (it drives dedup/reorder), so the triple is
//! globally unique for any realistic run length. The thread's step
//! context (`mf_telemetry::set_step_context`) is stamped on each end,
//! tying every message to the algorithmic step that sent it.

const SEQ_MASK: u64 = (1 << 40) - 1;

/// Pack `(src, dst, seq)` into one flow id. Ranks must be < 4096
/// (headroom above the largest simulated worlds, currently 1024 ranks);
/// sequence numbers are taken modulo 2^40.
#[inline]
pub fn flow_id(src: usize, dst: usize, seq: u64) -> u64 {
    debug_assert!(src < 4096 && dst < 4096, "flow_id: rank out of range");
    ((src as u64) << 52) | ((dst as u64) << 40) | (seq & SEQ_MASK)
}

/// Source rank packed in a flow id.
#[inline]
pub fn flow_src(id: u64) -> usize {
    (id >> 52) as usize
}

/// Destination rank packed in a flow id.
#[inline]
pub fn flow_dst(id: u64) -> usize {
    ((id >> 40) & 0xFFF) as usize
}

/// Per-link sequence number packed in a flow id.
#[inline]
pub fn flow_seq(id: u64) -> u64 {
    id & SEQ_MASK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_id_round_trips_its_fields() {
        for (src, dst, seq) in [(0, 0, 0), (3, 1, 12345), (4095, 1023, SEQ_MASK), (7, 7, 1)] {
            let id = flow_id(src, dst, seq);
            assert_eq!(flow_src(id), src);
            assert_eq!(flow_dst(id), dst);
            assert_eq!(flow_seq(id), seq);
        }
    }

    #[test]
    fn flow_ids_are_distinct_across_links_and_seqs() {
        let a = flow_id(0, 1, 5);
        let b = flow_id(1, 0, 5);
        let c = flow_id(0, 1, 6);
        assert!(a != b && a != c && b != c);
    }
}
