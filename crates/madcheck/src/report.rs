//! Findings and the human-readable conformance report.

use simnet::Technology;

use crate::analyzer::Defect;
use crate::backlog::BacklogSpec;

/// One conformance violation: a strategy, a capability profile, a defect,
/// and the minimized backlog that reproduces it.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Offending strategy (plan provenance name).
    pub strategy: &'static str,
    /// Capability profile the violation occurred under.
    pub tech: Technology,
    /// Which checker rejected the plan, and why.
    pub defect: Defect,
    /// Debug rendering of the offending plan.
    pub plan: String,
    /// Minimized counterexample backlog; `spec.build()` reproduces the
    /// collect-layer state.
    pub spec: BacklogSpec,
}

/// Aggregate result of an analysis run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Violations, in discovery order.
    pub findings: Vec<Finding>,
    /// Strategies analyzed.
    pub strategies: usize,
    /// Capability profiles swept.
    pub profiles: usize,
    /// Strategy × backlog cases replayed.
    pub cases: usize,
    /// Individual plans checked.
    pub plans: usize,
}

impl Report {
    /// Empty report for `strategies` strategies.
    pub fn new(strategies: usize) -> Self {
        Report {
            findings: Vec::new(),
            strategies,
            profiles: 0,
            cases: 0,
            plans: 0,
        }
    }

    /// True when every checked plan conformed.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "madcheck: {} strategies x {} profiles, {} backlogs replayed, {} plans checked",
            self.strategies, self.profiles, self.cases, self.plans
        )?;
        if self.is_clean() {
            writeln!(f, "conformant: no strategy exceeded any driver capability")?;
        } else {
            for (i, finding) in self.findings.iter().enumerate() {
                writeln!(f)?;
                writeln!(
                    f,
                    "FINDING {}: strategy `{}` on {:?}",
                    i + 1,
                    finding.strategy,
                    finding.tech
                )?;
                writeln!(f, "  defect: {}", finding.defect)?;
                writeln!(f, "  plan:   {}", finding.plan)?;
                writeln!(f, "  minimized counterexample backlog:")?;
                for line in finding.spec.to_string().lines() {
                    writeln!(f, "    {line}")?;
                }
            }
        }
        Ok(())
    }
}

/// Result of one sweep rule (every madcheck rule but the strategy
/// analyzer itself, whose [`Report`] carries minimized backlogs): what the
/// rule counted, what it found, and the verdict it prints when it found
/// nothing.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Rule name, printed after `madcheck ` (`"prof"`, `"net"`, …).
    pub rule: &'static str,
    /// What a clean run established, printed after `conformant: `.
    pub verdict: &'static str,
    /// Named counters in print order, e.g. `("workloads", 8)`.
    pub counters: Vec<(&'static str, usize)>,
    /// Violations, in discovery order.
    pub findings: Vec<String>,
}

impl SweepReport {
    /// Empty report for `rule`, every counter in `counters` at zero.
    pub fn new(rule: &'static str, verdict: &'static str, counters: &[&'static str]) -> Self {
        SweepReport {
            rule,
            verdict,
            counters: counters.iter().map(|&name| (name, 0)).collect(),
            findings: Vec::new(),
        }
    }

    /// Add `n` to the counter called `name` (which the rule must have
    /// declared in [`SweepReport::new`]).
    pub fn add(&mut self, name: &str, n: usize) {
        let slot = self.counters.iter_mut().find(|(c, _)| *c == name);
        slot.expect("counter declared by the rule").1 += n;
    }

    /// Current value of the counter called `name`.
    pub fn count(&self, name: &str) -> usize {
        let slot = self.counters.iter().find(|(c, _)| *c == name);
        slot.expect("counter declared by the rule").1
    }

    /// True when the rule found no violation.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl std::fmt::Display for SweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, n)| format!("{n} {name}"))
            .collect();
        writeln!(f, "madcheck {}: {}", self.rule, counters.join(", "))?;
        if self.is_clean() {
            return writeln!(f, "conformant: {}", self.verdict);
        }
        let tag = self.rule.to_uppercase();
        for (i, finding) in self.findings.iter().enumerate() {
            writeln!(f, "{tag} FINDING {}: {finding}", i + 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one rendering every sweep rule shares, clean and with findings.
    #[test]
    fn sweep_report_display_is_golden() {
        let mut r = SweepReport::new(
            "prof",
            "every phase attribution partitions its message's lifetime",
            &["workloads", "message partitions", "segments"],
        );
        r.add("workloads", 8);
        r.add("message partitions", 90);
        r.add("message partitions", 1);
        assert_eq!(
            (r.count("message partitions"), r.count("segments")),
            (91, 0)
        );
        assert_eq!(
            r.to_string(),
            "madcheck prof: 8 workloads, 91 message partitions, 0 segments\n\
             conformant: every phase attribution partitions its message's lifetime\n"
        );
        r.findings.push("sample 3: ring overflowed".to_string());
        r.findings
            .push("sample 5: on MyrinetMx\n  defect: too wide".to_string());
        assert!(!r.is_clean());
        assert_eq!(
            r.to_string(),
            "madcheck prof: 8 workloads, 91 message partitions, 0 segments\n\
             PROF FINDING 1: sample 3: ring overflowed\n\
             PROF FINDING 2: sample 5: on MyrinetMx\n  defect: too wide\n"
        );
    }
}
