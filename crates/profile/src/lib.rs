//! Live metrics exposition for the mosaic-flow hot paths.
//!
//! [`MetricsServer`] is a dependency-free HTTP server on
//! `std::net::TcpListener` serving `GET /metrics` (Prometheus/OpenMetrics
//! text) and `GET /snapshot` (JSON), merging every published per-rank
//! registry on scrape. Enabled with `--metrics-addr HOST:PORT` or
//! `MF_METRICS_ADDR`; other crates add endpoints with [`register_route`].
//!
//! What it mostly serves are the kernel zones: [`zone!`] is the kernel
//! level of the `mf-telemetry` instrumentation spine, re-exported here for
//! the crates that instrument kernels, and [`set_enabled`] switches the
//! spine's timing-histogram sink (`prof.<name>_us` and `<name>_us`).
//!
//! ```
//! mf_profile::zone!("doc_example");
//! // … work …
//! ```

mod server;

pub use mf_telemetry::zone;
pub use server::{http_get, register_route, MetricsServer, RouteHandler};

/// Turn the timing histograms of every `zone!` and `span!` on or off
/// globally. On by default.
pub fn set_enabled(on: bool) {
    mf_telemetry::set_sink(mf_telemetry::ZONES, on);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_telemetry::MetricValue;

    fn hist_count(name: &str) -> u64 {
        match mf_telemetry::snapshot().get(name) {
            Some(MetricValue::Histogram(h)) => h.count,
            _ => 0,
        }
    }

    #[test]
    fn zones_record_into_histogram() {
        let before = hist_count("prof.test_zone_us");
        {
            zone!("test_zone");
            std::hint::black_box(1 + 1);
        }
        assert_eq!(hist_count("prof.test_zone_us"), before + 1);
    }

    #[test]
    fn zones_nest() {
        let outer0 = hist_count("prof.test_outer_us");
        let inner0 = hist_count("prof.test_inner_us");
        {
            zone!("test_outer");
            {
                zone!("test_inner");
            }
            {
                zone!("test_inner");
            }
        }
        assert_eq!(hist_count("prof.test_outer_us"), outer0 + 1);
        assert_eq!(hist_count("prof.test_inner_us"), inner0 + 2);
    }

    #[test]
    fn disabled_zones_record_nothing() {
        let before = hist_count("prof.test_disabled_us");
        set_enabled(false);
        {
            zone!("test_disabled");
        }
        set_enabled(true);
        assert_eq!(hist_count("prof.test_disabled_us"), before);
    }
}
