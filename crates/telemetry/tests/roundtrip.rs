//! Integration coverage for the cross-thread collection paths: many
//! rank-tagged threads recording spans/flows/metrics concurrently, one
//! drain seeing all of them, and the snapshot wire format surviving a
//! serialize → parse → merge round trip (including histograms and the
//! interpolated quantiles).

use mf_telemetry::{
    drain_flows, drain_spans, histogram, snapshot, Buckets, FlowPhase, MetricValue, MetricsSnapshot,
};

#[test]
fn spans_and_flows_from_many_threads_drain_once_in_rank_order() {
    mf_telemetry::set_tracing(true);
    let ranks = 4;
    std::thread::scope(|s| {
        for rank in 0..ranks {
            s.spawn(move || {
                mf_telemetry::set_thread_rank(rank);
                for step in 0..3 {
                    mf_telemetry::span!("it.cross_drain.step", step = step as f64);
                }
                mf_telemetry::flow("it.cross_drain.flow", rank as u64, FlowPhase::Start, 64);
                mf_telemetry::flush_thread();
            });
        }
    });
    mf_telemetry::set_tracing(false);

    let spans: Vec<_> = drain_spans()
        .into_iter()
        .filter(|e| e.name == "it.cross_drain.step")
        .collect();
    assert_eq!(spans.len(), ranks * 3, "every thread's spans are drained");
    // drain_spans orders by (rank, start, ...).
    let rank_seq: Vec<usize> = spans.iter().map(|e| e.rank).collect();
    let mut sorted = rank_seq.clone();
    sorted.sort_unstable();
    assert_eq!(rank_seq, sorted, "spans come out grouped by rank");
    for rank in 0..ranks {
        assert_eq!(spans.iter().filter(|e| e.rank == rank).count(), 3);
    }

    let flows: Vec<_> = drain_flows()
        .into_iter()
        .filter(|f| f.name == "it.cross_drain.flow")
        .collect();
    assert_eq!(flows.len(), ranks);
    for rank in 0..ranks {
        assert!(flows
            .iter()
            .any(|f| f.rank == rank && f.id == rank as u64 && f.phase == FlowPhase::Start));
    }

    // A second drain is empty: the collector was consumed.
    assert!(drain_spans()
        .iter()
        .all(|e| e.name != "it.cross_drain.step"));
    assert!(drain_flows()
        .iter()
        .all(|f| f.name != "it.cross_drain.flow"));
}

#[test]
fn per_rank_snapshots_serialize_parse_and_merge_with_quantiles() {
    // Two "ranks" record into the same named metrics on their own
    // threads; each ships its snapshot as text (exactly what
    // gather_rank_metrics does over the communicator).
    let mk = |rank: u64| {
        std::thread::spawn(move || {
            mf_telemetry::set_thread_rank(rank as usize);
            let c = mf_telemetry::counter("it.roundtrip.msgs");
            let g = mf_telemetry::gauge("it.roundtrip.peak");
            let h = histogram("it.roundtrip.lat_us", Buckets::explicit(&[10.0, 100.0]));
            c.add(2 + rank);
            g.set(1.5 * (rank + 1) as f64);
            for v in [1.0, 20.0, 30.0 + rank as f64 * 200.0] {
                h.record(v);
            }
            snapshot().serialize()
        })
        .join()
        .unwrap()
    };
    let wire0 = mk(0);
    let wire1 = mk(1);

    let s0 = MetricsSnapshot::parse(&wire0).expect("rank 0 snapshot parses");
    let s1 = MetricsSnapshot::parse(&wire1).expect("rank 1 snapshot parses");
    // The wire format is exact: re-serializing reproduces the bytes.
    assert_eq!(s0.serialize(), wire0);
    assert_eq!(s1.serialize(), wire1);

    let mut merged = s0.clone();
    merged.merge(&s1);
    assert_eq!(merged.counter("it.roundtrip.msgs"), 2 + 3);
    assert_eq!(merged.gauge("it.roundtrip.peak"), 3.0); // gauges keep max
    let Some(MetricValue::Histogram(h)) = merged.get("it.roundtrip.lat_us") else {
        panic!("merged histogram missing");
    };
    assert_eq!(h.count, 6);
    assert_eq!(h.counts, vec![2, 3, 1]); // per-bucket counts added
    assert_eq!((h.min, h.max), (1.0, 230.0));
    // Interpolated quantiles on the merged histogram: finite, ordered,
    // inside the observed range (the overflow bucket holds 230.0).
    let [p50, p95, p99] = h.percentiles();
    assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    assert!(p50 >= h.min && p99 <= h.max);
    assert!(p99.is_finite(), "overflow bucket must not yield inf");
    // The merged snapshot round-trips too.
    assert_eq!(
        MetricsSnapshot::parse(&merged.serialize()).as_ref(),
        Some(&merged)
    );
}
