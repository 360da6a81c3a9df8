//! The output checker, and the canonical form of an answer.
//!
//! A query's answer is re-evaluated tier by tier through
//! [`evaluate_enterprise_design`] or [`evaluate_job_design`], with a fresh
//! evaluation session and an uncached engine of the workload's kind. The
//! answer fails when the design misses its requirement, or when its cost,
//! downtime or job time differs from the re-evaluation in any bit.
//! [`judge`] adds the comparison with the recorded reference answer.

use aved::avail::{combine_series, TierAvailability};
use aved::model::Design;
use aved::search::{evaluate_enterprise_design, evaluate_job_design, EvalContext, EvaluatedDesign};
use aved::units::{Duration, Money};
use aved::{DesignReport, ServiceRequirement};

use crate::reference::answer_hash;

/// What an answer claims: a design and its headline metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The winning design, one tier design per service tier.
    pub design: Design,
    /// Its annual cost.
    pub cost: Money,
    /// Its annual downtime.
    pub annual_downtime: Option<Duration>,
    /// Its expected job completion time (job services).
    pub expected_job_time: Option<Duration>,
}

impl Claim {
    /// The claim a design report makes.
    #[must_use]
    pub fn from_report(report: &DesignReport) -> Claim {
        Claim {
            design: report.design().clone(),
            cost: report.cost(),
            annual_downtime: report.annual_downtime(),
            expected_job_time: report.expected_job_time(),
        }
    }

    /// What `aved design` prints on stdout for this answer.
    #[must_use]
    pub fn cli_stdout(&self) -> String {
        let mut out = format!("minimum-cost design: {} per year\n", self.cost);
        if let Some(dt) = self.annual_downtime {
            out += &format!("expected annual downtime: {:.2} min\n", dt.minutes());
        }
        if let Some(t) = self.expected_job_time {
            out += &format!("expected job completion: {:.2} h\n", t.hours());
        }
        for tier in self.design.tiers() {
            out += &format!("  {tier}\n");
        }
        out
    }
}

/// The canonical text of an answer: every tier design, and the exact bits
/// of the cost, the downtime and the job time — or `infeasible`.
#[must_use]
pub fn answer_key(claim: Option<&Claim>) -> String {
    let Some(claim) = claim else {
        return "infeasible".to_owned();
    };
    let bits = |d: Option<Duration>| {
        d.map_or_else(
            || "-".to_owned(),
            |d| format!("{:016x}", d.seconds().to_bits()),
        )
    };
    let tiers: Vec<String> = claim
        .design
        .tiers()
        .iter()
        .map(ToString::to_string)
        .collect();
    format!(
        "{} | cost {:016x} | downtime {} | job time {}",
        tiers.join("; "),
        claim.cost.dollars().to_bits(),
        bits(claim.annual_downtime),
        bits(claim.expected_job_time),
    )
}

/// Re-evaluates `claim` in `ctx` — whose engine must be uncached and of the
/// workload's kind — and checks it against `requirement`.
///
/// # Errors
///
/// Describes the first way the claim fails.
pub fn check(
    ctx: &EvalContext<'_>,
    requirement: &ServiceRequirement,
    claim: &Claim,
) -> Result<(), String> {
    let tiers = claim.design.tiers();
    if tiers.len() != ctx.service().tiers().len() {
        return Err(format!(
            "design has {} tier(s), the service {}",
            tiers.len(),
            ctx.service().tiers().len()
        ));
    }
    let mut evaluated: Vec<EvaluatedDesign> = Vec::with_capacity(tiers.len());
    for td in tiers {
        let option = ctx
            .tier(td.tier().as_str())
            .map_err(|e| e.to_string())?
            .option_for(td.resource().as_str())
            .ok_or_else(|| format!("tier {} offers no resource {}", td.tier(), td.resource()))?;
        let e = match requirement {
            ServiceRequirement::Enterprise { min_throughput, .. } => {
                evaluate_enterprise_design(ctx, option, td, *min_throughput)
            }
            ServiceRequirement::Job { .. } => evaluate_job_design(ctx, option, td),
        }
        .map_err(|e| format!("re-evaluating {td}: {e}"))?
        .ok_or_else(|| format!("{td} cannot carry the required load"))?;
        evaluated.push(e);
    }

    // Summed and composed in tier order, exactly as the search composes.
    let cost: Money = evaluated.iter().map(EvaluatedDesign::cost).sum();
    same_bits("cost", claim.cost.dollars(), cost.dollars())?;
    let downtime = match requirement {
        ServiceRequirement::Enterprise { .. } => {
            let tiers: Vec<TierAvailability> =
                evaluated.iter().map(|e| *e.availability()).collect();
            combine_series(&tiers).annual_downtime()
        }
        ServiceRequirement::Job { .. } => evaluated[0].annual_downtime(),
    };
    let claimed = claim
        .annual_downtime
        .ok_or("the answer reports no downtime")?;
    same_bits("downtime", claimed.seconds(), downtime.seconds())?;

    match requirement {
        ServiceRequirement::Enterprise {
            max_annual_downtime,
            ..
        } => {
            if claim.expected_job_time.is_some() {
                return Err("an enterprise answer reports a job time".into());
            }
            if downtime > *max_annual_downtime {
                return Err(format!(
                    "downtime {} min exceeds the budget of {} min",
                    downtime.minutes(),
                    max_annual_downtime.minutes()
                ));
            }
        }
        ServiceRequirement::Job { max_execution_time } => {
            let time = evaluated[0]
                .expected_job_time()
                .ok_or("re-evaluation yields no job time")?;
            let claimed = claim
                .expected_job_time
                .ok_or("the answer reports no job time")?;
            same_bits("job time", claimed.seconds(), time.seconds())?;
            if time > *max_execution_time {
                return Err(format!(
                    "job time {} h exceeds the deadline of {} h",
                    time.hours(),
                    max_execution_time.hours()
                ));
            }
        }
    }
    Ok(())
}

/// Judges one query's answer: it fails when the query errored, when the
/// claimed design fails [`check`], or when the answer differs from
/// `reference`, the hash recorded for this query when the benchmark was
/// defined. The last rule catches what `check` alone cannot: a feasible
/// but dearer design, or "infeasible" where a design exists.
///
/// # Errors
///
/// Describes why the answer fails.
pub fn judge(
    ctx: &EvalContext<'_>,
    requirement: &ServiceRequirement,
    answer: &Result<Option<Claim>, String>,
    reference: u64,
) -> Result<(), String> {
    let claim = answer.as_ref().map_err(Clone::clone)?.as_ref();
    if let Some(claim) = claim {
        check(ctx, requirement, claim)?;
    }
    if answer_hash(claim) != reference {
        return Err(format!(
            "the answer `{}` differs from the one recorded for this query",
            answer_key(claim)
        ));
    }
    Ok(())
}

fn same_bits(what: &str, claimed: f64, actual: f64) -> Result<(), String> {
    if claimed.to_bits() == actual.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "reported {what} {claimed:e} differs from the re-evaluated {actual:e}"
        ))
    }
}
