//! Operation accounting, order statistics, and the result line.

use std::fmt::Write as _;

/// Attempted and failed counts of one kind of operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// Attempted and failed operations of a run, by kind, plus the output-check failures.
#[derive(Debug, Default)]
pub struct Ledger {
    pub partitions: Ops,
    pub multigets: Ops,
    pub epochs: Ops,
    /// Failed checks that are not tied to one operation.
    pub check_failures: u64,
    /// The first few failure descriptions, for the log.
    pub failures: Vec<String>,
}

/// Failure descriptions kept for the log; further failures are only counted.
const KEEP_FAILURES: usize = 20;

impl Ledger {
    /// Records the outcome of one operation: `Ok` passes, `Err` names the failed check.
    pub fn record(&mut self, kind: Kind, outcome: Result<(), String>) {
        let ops = self.ops(kind);
        ops.attempted += 1;
        if let Err(why) = outcome {
            ops.failed += 1;
            self.note(format!("{kind:?}: {why}"));
        }
    }

    /// Records `count` operations of one kind, of which those in `failures` failed.
    pub fn record_many(&mut self, kind: Kind, count: u64, failures: Vec<String>) {
        let ops = self.ops(kind);
        ops.attempted += count;
        ops.failed += failures.len() as u64;
        for why in failures {
            self.note(format!("{kind:?}: {why}"));
        }
    }

    fn note(&mut self, line: String) {
        if self.failures.len() < KEEP_FAILURES {
            self.failures.push(line);
        }
    }

    fn ops(&mut self, kind: Kind) -> &mut Ops {
        match kind {
            Kind::Partition => &mut self.partitions,
            Kind::Multiget => &mut self.multigets,
            Kind::Epoch => &mut self.epochs,
        }
    }

    /// A check that is not tied to one operation (input integrity, replay agreement).
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.check_failures += 1;
            self.note(format!("check failed: {what}"));
        }
    }

    /// Whether every operation and every check passed.
    pub fn all_passed(&self) -> bool {
        self.failed() == 0 && self.check_failures == 0
    }

    pub fn attempted(&self) -> u64 {
        self.partitions.attempted + self.multigets.attempted + self.epochs.attempted
    }

    pub fn failed(&self) -> u64 {
        self.partitions.failed + self.multigets.failed + self.epochs.failed
    }
}

/// Operation kinds.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Partition,
    Multiget,
    Epoch,
}

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of integer samples, selected in place (no copy, no allocation).
pub fn quantile_u32(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(rank).1 as f64
}

/// Renders metrics as a JSON object `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push('}');
    out
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, ledger: &Ledger, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        ledger.attempted(),
        ledger.failed(),
        metrics_json(metrics)
    )
}
