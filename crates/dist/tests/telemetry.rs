//! Integration of `mf-telemetry` with the simulated cluster: span
//! nesting/ordering under `Cluster::run`, per-rank metric snapshots, and
//! the trace exporter's round trip over real collective traffic.

use mf_dist::Cluster;
use mf_telemetry::{
    drain_spans, histogram, parse_chrome_trace, snapshot, span, write_chrome_trace, Buckets,
    MetricValue, MetricsSnapshot,
};
use std::sync::Mutex;

/// The tracing flag and the span collector are global; serialize the
/// tests that use them.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn spans_nest_and_order_per_rank_under_cluster_run() {
    let _guard = TRACE_LOCK.lock().unwrap();
    mf_telemetry::clear_spans();
    mf_telemetry::set_tracing(true);
    Cluster::run(3, |c| {
        span!("itest.outer", rank = c.rank() as f64);
        for i in 0..2 {
            span!("itest.inner", i = i as f64);
            let mut buf = vec![c.rank() as f64; 4];
            c.allreduce_sum(&mut buf);
        }
    });
    mf_telemetry::set_tracing(false);
    let spans: Vec<_> = drain_spans()
        .into_iter()
        .filter(|s| s.name.starts_with("itest.") || s.name == "comm.allreduce")
        .collect();

    for rank in 0..3 {
        let mine: Vec<_> = spans.iter().filter(|s| s.rank == rank).collect();
        let outer: Vec<_> = mine.iter().filter(|s| s.name == "itest.outer").collect();
        let inner: Vec<_> = mine.iter().filter(|s| s.name == "itest.inner").collect();
        let ar: Vec<_> = mine.iter().filter(|s| s.name == "comm.allreduce").collect();
        assert_eq!(outer.len(), 1, "rank {rank}");
        assert_eq!(inner.len(), 2, "rank {rank}");
        assert_eq!(ar.len(), 2, "rank {rank}");
        // Depths reflect lexical nesting: outer(0) > inner(1) > allreduce(2).
        assert_eq!(outer[0].depth, 0);
        assert!(inner.iter().all(|s| s.depth == 1));
        assert!(ar.iter().all(|s| s.depth == 2));
        // Parents contain their children in time.
        let oend = outer[0].start_us + outer[0].dur_us;
        for s in inner.iter().chain(ar.iter()) {
            assert!(s.start_us >= outer[0].start_us, "rank {rank}");
            assert!(s.start_us + s.dur_us <= oend, "rank {rank}");
        }
        // drain_spans sorts by start time within a rank.
        for w in mine.windows(2) {
            assert!(w[0].start_us <= w[1].start_us, "rank {rank}");
        }
        // Span args carried the rank through.
        assert_eq!(outer[0].args, vec![("rank".to_string(), rank as f64)]);
    }

    // The full trace survives the exporter byte-exactly.
    let mut chrome = Vec::new();
    write_chrome_trace(&spans, &mut chrome).unwrap();
    assert_eq!(
        parse_chrome_trace(&String::from_utf8(chrome).unwrap())
            .unwrap()
            .0,
        spans
    );
}

#[test]
fn rank_snapshots_count_their_own_traffic() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let outs = Cluster::run(4, |c| {
        // Distinct per-rank traffic: rank r sends r point-to-point
        // messages of 1 element to rank 0.
        if c.rank() > 0 {
            for i in 0..c.rank() {
                c.send(0, 77 + i as u64, &[1.0]);
            }
        } else {
            for src in 1..c.size() {
                for i in 0..src {
                    let _ = c.recv(src, 77 + i as u64);
                }
            }
        }
        (c.stats(), snapshot())
    });
    // Rank threads are fresh, so a snapshot is exactly that rank's run and
    // agrees with its own CommStats view.
    for (rank, (stats, snap)) in outs.iter().enumerate() {
        assert_eq!(snap.counter("comm.msgs_sent"), stats.msgs_sent as u64);
        assert_eq!(snap.counter("comm.bytes_sent"), stats.bytes_sent as u64);
        if rank > 0 {
            assert_eq!(snap.counter("comm.msgs_sent"), rank as u64);
            assert_eq!(snap.counter("comm.bytes_sent"), rank as u64 * 8);
        } else {
            assert_eq!(snap.counter("comm.msgs_recv"), 6);
            assert_eq!(snap.counter("comm.bytes_recv"), 48);
        }
    }
}

#[test]
fn merged_rank_histograms_pool_per_bucket_counts() {
    // Each rank records a disjoint slice of one observation set; merging
    // the ranks' snapshots (what the `--metrics` report does) must behave
    // as if a single rank had observed the whole pool: summed bucket
    // counts, pooled count/sum/min/max, and quantile estimates that land
    // in the pooled quantile's bucket.
    let per_rank_obs: [&[f64]; 4] = [
        &[1.0, 2.0, 3.0],
        &[10.0, 20.0, 900.0],
        &[40.0, 55.0],
        &[0.5, 7.0, 70.0, 800.0],
    ];
    let mut pooled: Vec<f64> = per_rank_obs
        .iter()
        .flat_map(|o| o.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    let buckets = Buckets::exponential(1.0, 4.0, 6);
    let bounds = buckets.bounds().to_vec();

    let mut merged = MetricsSnapshot::default();
    for snap in Cluster::run(4, |c| {
        let h = histogram("test.dist.merge_hist", Buckets::exponential(1.0, 4.0, 6));
        for &v in per_rank_obs[c.rank()] {
            h.record(v);
        }
        snapshot()
    }) {
        merged.merge(&snap);
    }

    let Some(MetricValue::Histogram(h)) = merged.get("test.dist.merge_hist") else {
        panic!("merged histogram missing");
    };
    assert_eq!(h.count, pooled.len() as u64);
    assert_eq!(h.sum, pooled.iter().sum::<f64>());
    assert_eq!((h.min, h.max), (0.5, 900.0));
    let mut expect = vec![0u64; bounds.len() + 1];
    for &v in &pooled {
        expect[buckets.bucket_index(v)] += 1;
    }
    assert_eq!(h.counts, expect);
    for q in [0.5, 0.95, 0.99] {
        let exact = pooled[((q * pooled.len() as f64).ceil() as usize - 1).min(pooled.len() - 1)];
        let est = h.quantile_est(q);
        let b = buckets.bucket_index(exact);
        let lo = if b == 0 {
            h.min
        } else {
            bounds[b - 1].max(h.min)
        };
        let hi = bounds.get(b).copied().unwrap_or(h.max).min(h.max);
        assert!(
            est >= lo && est <= hi,
            "q{q}: est {est} outside bucket [{lo}, {hi}] containing exact {exact}"
        );
    }
}
