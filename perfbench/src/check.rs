//! Output verification: what makes a run's `correct` true.
//!
//! * the deterministic half of every round is identical (checked as the
//!   rounds run) and a round over a cold arena equals the hot ones;
//! * every cycle with a tick produced one decision, every non-`Wait`
//!   decision one fill;
//! * a bare `AdmissionEngine` admits exactly the phase-1 tenants the
//!   session admitted;
//! * cached and `without_cache()` admission decide identically on the
//!   sampled stream;
//! * for the default seed, the digest equals the committed
//!   `perfbench/expected/<workload>.json` byte for byte.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rtseed::serve::ServeCounters;

use crate::layers::{AdmissionReplay, SampledAdmission};
use crate::round::{Digest, Runner};
use crate::spans::Recorder;
use crate::workloads::Inputs;

/// The seed the committed expectations were recorded with.
pub const DEFAULT_SEED: u64 = 2014;

/// Set to `1` to rewrite the expectations instead of comparing them.
const REGEN_ENV: &str = "PERFBENCH_REGEN";

/// This package's directory: `perfbench/` when run from the repository
/// root (as the driver does), else the current directory.
pub fn package_dir() -> PathBuf {
    if Path::new("perfbench/Cargo.toml").exists() {
        PathBuf::from("perfbench")
    } else {
        PathBuf::from(".")
    }
}

fn expected_path(workload: &str) -> PathBuf {
    package_dir().join(format!("expected/{workload}.json"))
}

/// The digest as JSON, one member a line so a change diffs readably.
pub fn digest_json(d: &Digest) -> String {
    let ServeCounters {
        submissions,
        admissions,
        rejections,
        departures,
        od_updates_applied,
        churn_events,
        rejected_capacity,
        rejected_empty,
        rejected_quarantined,
        rejected_evicted,
        rejected_queue_full,
        rejected_deadline,
        deferred_submissions,
        deferred_admissions,
        admission_rounds,
        parallel_admission_rounds,
        sheds,
        quarantines,
        evictions,
        recoveries,
    } = d.counters;
    let [delta_m, delta_b, delta_s, delta_e] = d.delta_mean_ns;
    let members: &[(&str, u64)] = &[
        ("submitted", d.submitted),
        ("admitted_at_submit", d.admitted_at_submit),
        ("deferred_at_submit", d.deferred_at_submit),
        ("submit_fp", d.submit_fp),
        ("serve.submissions", submissions),
        ("serve.admissions", admissions),
        ("serve.rejections", rejections),
        ("serve.departures", departures),
        ("serve.od_updates_applied", od_updates_applied),
        ("serve.churn_events", churn_events),
        ("serve.rejected_capacity", rejected_capacity),
        ("serve.rejected_empty", rejected_empty),
        ("serve.rejected_quarantined", rejected_quarantined),
        ("serve.rejected_evicted", rejected_evicted),
        ("serve.rejected_queue_full", rejected_queue_full),
        ("serve.rejected_deadline", rejected_deadline),
        ("serve.deferred_submissions", deferred_submissions),
        ("serve.deferred_admissions", deferred_admissions),
        ("serve.admission_rounds", admission_rounds),
        ("serve.parallel_admission_rounds", parallel_admission_rounds),
        ("serve.sheds", sheds),
        ("serve.quarantines", quarantines),
        ("serve.evictions", evictions),
        ("serve.recoveries", recoveries),
        ("tenants_submitted", d.tenants_submitted),
        ("tenants_admitted", d.tenants_admitted),
        ("tenants_fp", d.tenants_fp),
        ("events", d.events),
        ("jobs", d.jobs),
        ("misses", d.misses),
        ("achieved_ns", d.achieved_ns),
        ("requested_ns", d.requested_ns),
        ("delta_m_mean_ns", delta_m),
        ("delta_b_mean_ns", delta_b),
        ("delta_s_mean_ns", delta_s),
        ("delta_e_mean_ns", delta_e),
        ("response_p99_ns", d.response_p99_ns),
        ("release_jitter_p99_ns", d.release_jitter_p99_ns),
        ("deferred_latency_p50_ns", d.deferred_latency_p50_ns),
        ("cycles", d.cycles),
        ("decisions", d.decisions),
        ("orders", d.orders),
        ("fills", d.fills),
        ("no_tick", d.no_tick),
        ("analyses", d.analyses),
        ("decisions_fp", d.decisions_fp),
        ("trace_events", d.trace_events),
        ("trace_dropped", d.trace_dropped),
        ("pipeline_events", d.pipeline_events),
        ("export_bytes", d.export_bytes),
    ];
    let mut out = String::from("{\n");
    for (i, (key, value)) in members.iter().enumerate() {
        let comma = if i + 1 < members.len() { "," } else { "" };
        // Fingerprints exceed 2^53: keep them exact as hex strings.
        if key.ends_with("_fp") {
            let _ = writeln!(out, "  \"{key}\": \"{value:016x}\"{comma}");
        } else {
            let _ = writeln!(out, "  \"{key}\": {value}{comma}");
        }
    }
    out.push_str("}\n");
    out
}

/// Runs every check on `hot`, the digest all timed rounds agreed on, and
/// returns what failed (empty when the outputs are correct).
pub fn verify(
    workload: &str,
    seed: u64,
    inputs: &Inputs,
    hot: &Digest,
    admission: &AdmissionReplay,
    sampled: &SampledAdmission,
) -> Vec<String> {
    let mut failures = Vec::new();
    let cold = Runner::new(inputs).round(&mut Recorder::disabled());
    if cold != *hot {
        failures.push(format!(
            "a cold arena decides differently: {cold:?} != {hot:?}"
        ));
    }
    if hot.decisions != hot.cycles - hot.no_tick {
        failures.push(format!(
            "{} decisions for {} cycles with a tick",
            hot.decisions,
            hot.cycles - hot.no_tick
        ));
    }
    if hot.cycles != hot.jobs {
        failures.push(format!(
            "{} cycles for {} completed jobs",
            hot.cycles, hot.jobs
        ));
    }
    if hot.fills != hot.orders {
        failures.push(format!("{} fills for {} orders", hot.fills, hot.orders));
    }
    if admission.submit_fp != hot.submit_fp {
        failures.push(format!(
            "bare admission and the session disagree on phase 1: {:016x} != {:016x}",
            admission.submit_fp, hot.submit_fp
        ));
    }
    if sampled.cached_fp != sampled.full_fp {
        failures.push(format!(
            "cached and full-recompute admission disagree: {:016x} != {:016x}",
            sampled.cached_fp, sampled.full_fp
        ));
    }
    if seed == DEFAULT_SEED {
        let path = expected_path(workload);
        let ours = digest_json(hot);
        if std::env::var(REGEN_ENV).is_ok_and(|v| v == "1") {
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, &ours));
            if let Err(e) = written {
                failures.push(format!("cannot write {}: {e}", path.display()));
            }
        } else {
            match std::fs::read_to_string(&path) {
                Ok(expected) if expected == ours => {}
                Ok(_) => failures.push(format!(
                    "digest differs from {} ({REGEN_ENV}=1 rewrites it):\n{ours}",
                    path.display()
                )),
                Err(e) => failures.push(format!("cannot read {}: {e}", path.display())),
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn the_digest_serialises_to_json_with_exact_fingerprints() {
        let inputs = (crate::workloads::by_name("desk_day").unwrap().build)(DEFAULT_SEED);
        let digest = Runner::new(&inputs).round(&mut Recorder::disabled());
        let doc = json::parse(&digest_json(&digest)).expect("valid JSON");
        assert_eq!(
            doc.get("jobs").and_then(json::Value::as_f64),
            Some(digest.jobs as f64)
        );
        let fp = doc
            .get("decisions_fp")
            .and_then(json::Value::as_str)
            .unwrap();
        assert_eq!(u64::from_str_radix(fp, 16), Ok(digest.decisions_fp));
    }
}
