//! Self-repairing synthesis: diagnose → avoid → resynthesize.
//!
//! The paper motivates discrete line arrays with repairability: devices
//! "can be easily replaced after manufacturing or upon failure in
//! operation" (§I). This module automates the software half of that story.
//! Given a synthesized schedule that misbehaves on faulty hardware (as
//! witnessed by a fault-injection campaign,
//! [`mm_circuit::campaign`]), the repair loop:
//!
//! 1. runs the campaign and reads the per-cell failure attribution,
//! 2. adds the implicated cells (stuck or transiently upset — the
//!    avoidable fault classes) to the spec's
//!    [cell-avoidance constraint](crate::SynthSpec::with_cell_avoidance),
//! 3. resynthesizes under the synthesizer's own budget — the avoidance is
//!    enforced *inside the CNF formula*, so the new schedule provably never
//!    touches the diagnosed cells — and repeats, up to a retry bound.
//!
//! Certification ([`Synthesizer::with_certification`]) applies to every
//! retry: each resynthesis re-verifies its circuit on the device model and
//! re-checks any UNSAT sub-answers, so a repaired circuit is exactly as
//! trustworthy as a first-try one.
//!
//! Variability-class failures are *not* repairable by placement (every cell
//! varies); the loop reports them as unrepairable instead of looping
//! forever.

use mm_circuit::campaign::{run_campaign_traced, CampaignConfig, CampaignReport, FaultClass};
use mm_circuit::{FaultPlan, MmCircuit, ROpKind, Schedule};
use mm_telemetry::kv;

use crate::{SynthError, SynthResult, SynthSpec, Synthesizer};

/// Configuration of a repair loop.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Total cells of the physical array the schedule must fit on.
    pub array_size: usize,
    /// Maximum number of *re*-synthesis rounds after the initial one.
    pub max_retries: usize,
    /// The fault campaign each candidate schedule is validated against.
    pub campaign: CampaignConfig,
}

impl RepairConfig {
    /// A repair loop on an `array_size`-cell array with 4 retries and the
    /// default campaign configuration.
    pub fn new(array_size: usize) -> Self {
        Self {
            array_size,
            max_retries: 4,
            campaign: CampaignConfig::default(),
        }
    }
}

/// One diagnose-and-avoid round of a repair loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairAttempt {
    /// Cells avoided when this round's circuit was synthesized.
    pub avoided: Vec<usize>,
    /// Failing campaign executions of this round's schedule.
    pub failures: u32,
    /// Cells the campaign newly implicated (stuck or transient class).
    pub newly_implicated: Vec<usize>,
}

/// How a repair loop ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairStatus {
    /// The first synthesized schedule already survived the campaign; no
    /// repair was needed.
    Clean,
    /// At least one diagnose-and-avoid round ran, and the final schedule
    /// survives the campaign on the faulty array.
    Repaired,
    /// The loop stopped without a fault-free schedule (budgets exhausted,
    /// avoidance made the spec infeasible, unattributable failures, or the
    /// retry bound). The outcome still carries the best-known circuit when
    /// one exists — graceful degradation, not an error.
    Unrepairable {
        /// Why the loop gave up.
        reason: String,
    },
}

/// The result of [`synthesize_with_repair`].
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The last synthesized circuit, if any round produced one.
    pub circuit: Option<MmCircuit>,
    /// Its schedule placed on the physical array, routing around every
    /// avoided cell.
    pub placement: Option<Schedule>,
    /// The last campaign report (absent only when no circuit was found).
    pub report: Option<CampaignReport>,
    /// All cells avoided by the final placement.
    pub avoided: Vec<usize>,
    /// Every diagnose-and-avoid round, in order.
    pub attempts: Vec<RepairAttempt>,
    /// How the loop ended.
    pub status: RepairStatus,
}

impl RepairOutcome {
    /// Whether the final schedule survives the campaign fault-free.
    pub fn succeeded(&self) -> bool {
        matches!(self.status, RepairStatus::Clean | RepairStatus::Repaired)
    }
}

/// Synthesizes a circuit for `spec`, validates it against the fault
/// campaign, and iteratively repairs it by avoiding implicated cells.
///
/// The spec's own cell-avoidance constraint (if any) seeds the avoid set;
/// the configured `array_size` takes precedence over the spec's.
///
/// # Errors
///
/// Returns [`SynthError::InvalidConstraint`] when the R-op family has no
/// line-array schedule (repair needs one to run campaigns against) or a
/// fault plan references a cell outside the array; propagates synthesis
/// errors from any round. Failure to *repair* is reported in
/// [`RepairOutcome::status`], not as an error.
pub fn synthesize_with_repair(
    synth: &Synthesizer,
    spec: &SynthSpec,
    plans: &[FaultPlan],
    config: &RepairConfig,
) -> Result<RepairOutcome, SynthError> {
    if spec.rop_kind() != ROpKind::MagicNor {
        return Err(SynthError::InvalidConstraint {
            reason: format!(
                "repair requires a MAGIC-NOR line-array schedule, got {:?}",
                spec.rop_kind()
            ),
        });
    }
    for plan in plans {
        if let Some(cell) = plan.max_cell().filter(|&c| c >= config.array_size) {
            return Err(SynthError::InvalidConstraint {
                reason: format!(
                    "fault plan {:?} references cell {cell} outside the {}-cell array",
                    plan.name, config.array_size
                ),
            });
        }
    }

    let telemetry = synth.telemetry().clone();
    let _repair_span = telemetry.span_with(
        "repair",
        vec![
            kv("array_size", config.array_size),
            kv("max_retries", config.max_retries),
        ],
    );

    let mut avoided: Vec<usize> = spec
        .cell_avoidance()
        .map(|a| a.dead_cells())
        .unwrap_or_default();
    let mut attempts: Vec<RepairAttempt> = Vec::new();
    // Best-known (faulty) result from the previous round, reported when a
    // later round cannot improve on it: degradation, not data loss.
    let mut last: Option<(MmCircuit, Schedule, CampaignReport)> = None;

    for round in 0..=config.max_retries {
        let round_spec = spec
            .clone()
            .with_cell_avoidance(config.array_size, avoided.clone());
        let give_up = |reason: String,
                       last: Option<(MmCircuit, Schedule, CampaignReport)>,
                       attempts: Vec<RepairAttempt>,
                       avoided: Vec<usize>| {
            telemetry.point(
                "repair.round",
                vec![
                    kv("round", round),
                    kv("avoided", avoided.len()),
                    kv("outcome", "gave-up"),
                    kv("reason", reason.clone()),
                ],
            );
            let (circuit, placement, report) = match last {
                Some((c, s, r)) => (Some(c), Some(s), Some(r)),
                None => (None, None, None),
            };
            Ok(RepairOutcome {
                circuit,
                placement,
                report,
                avoided,
                attempts,
                status: RepairStatus::Unrepairable { reason },
            })
        };
        let outcome = match synth.run(&round_spec) {
            Ok(o) => o,
            // Avoidance added by *diagnosis* can shrink the working array
            // below the schedule's footprint; that is a repair dead end,
            // not a caller error. Round-0 failures (no diagnosis yet)
            // still propagate.
            Err(e @ SynthError::InvalidConstraint { .. }) if !attempts.is_empty() => {
                return give_up(
                    format!("avoidance became infeasible: {e}"),
                    last,
                    attempts,
                    avoided,
                );
            }
            Err(e) => return Err(e),
        };
        let (circuit, placement) = match outcome.result {
            SynthResult::Realizable(c) => {
                let placement = outcome
                    .placement
                    .expect("MAGIC-NOR specs with avoidance always carry a placement");
                (c, placement)
            }
            SynthResult::Unrealizable => {
                return give_up(
                    format!(
                        "no circuit exists that avoids cells {avoided:?} on a {}-cell array",
                        config.array_size
                    ),
                    last,
                    attempts,
                    avoided,
                );
            }
            SynthResult::Unknown => {
                return give_up(
                    format!(
                        "budget exhausted before a circuit avoiding cells {avoided:?} was found"
                    ),
                    last,
                    attempts,
                    avoided,
                );
            }
        };

        let report = run_campaign_traced(&placement, plans, &config.campaign, &telemetry)?;
        let failures: u32 = report.plans.iter().map(|p| p.failures).sum();
        if failures == 0 {
            let status = if attempts.is_empty() {
                RepairStatus::Clean
            } else {
                RepairStatus::Repaired
            };
            telemetry.point(
                "repair.round",
                vec![
                    kv("round", round),
                    kv("failures", failures),
                    kv("newly_implicated", 0usize),
                    kv("avoided", avoided.len()),
                    kv(
                        "outcome",
                        if attempts.is_empty() {
                            "clean"
                        } else {
                            "repaired"
                        },
                    ),
                ],
            );
            return Ok(RepairOutcome {
                circuit: Some(circuit),
                placement: Some(placement),
                report: Some(report),
                avoided,
                attempts,
                status,
            });
        }

        // Diagnose: cells whose divergences are stuck- or transient-class
        // are avoidable; variability-class cells are not (every cell
        // varies — moving the schedule would implicate different ones).
        let mut newly: Vec<usize> = report
            .plans
            .iter()
            .flat_map(|p| p.attribution.iter())
            .filter(|a| matches!(a.class, FaultClass::Stuck | FaultClass::Transient))
            .map(|a| a.cell)
            .filter(|c| !avoided.contains(c))
            .collect();
        newly.sort_unstable();
        newly.dedup();
        attempts.push(RepairAttempt {
            avoided: avoided.clone(),
            failures,
            newly_implicated: newly.clone(),
        });
        telemetry.point(
            "repair.round",
            vec![
                kv("round", round),
                kv("failures", failures),
                kv("newly_implicated", newly.len()),
                kv("avoided", avoided.len()),
                kv(
                    "outcome",
                    if newly.is_empty() {
                        "unrepairable"
                    } else if round == config.max_retries {
                        "retry-limit"
                    } else {
                        "diagnosed"
                    },
                ),
            ],
        );

        if newly.is_empty() {
            return Ok(RepairOutcome {
                circuit: Some(circuit),
                placement: Some(placement),
                report: Some(report),
                avoided,
                attempts,
                status: RepairStatus::Unrepairable {
                    reason: "remaining campaign failures are not attributable to \
                             avoidable cells (variability-class)"
                        .to_string(),
                },
            });
        }
        if round == config.max_retries {
            return Ok(RepairOutcome {
                circuit: Some(circuit),
                placement: Some(placement),
                report: Some(report),
                avoided,
                attempts,
                status: RepairStatus::Unrepairable {
                    reason: format!("retry limit ({}) reached", config.max_retries),
                },
            });
        }
        avoided.extend(newly);
        avoided.sort_unstable();
        last = Some((circuit, placement, report));
    }
    unreachable!("the loop always returns from its final round");
}

#[cfg(test)]
mod tests {
    use mm_boolfn::generators;
    use mm_circuit::DeviceState;

    use super::*;

    #[test]
    fn healthy_array_needs_no_repair() {
        let f = generators::xor_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 1, 2, 2).unwrap();
        let outcome = synthesize_with_repair(
            &Synthesizer::new(),
            &spec,
            &[FaultPlan::named("control")],
            &RepairConfig::new(8),
        )
        .unwrap();
        assert_eq!(outcome.status, RepairStatus::Clean);
        assert!(outcome.succeeded());
        assert!(outcome.attempts.is_empty());
        let placement = outcome.placement.as_ref().unwrap();
        assert_eq!(placement.n_cells(), 8);
        assert!(placement.verify(&f));
    }

    #[test]
    fn stuck_cell_is_diagnosed_and_avoided() {
        // XOR2 mixed-mode occupies cells 0..3 of the placed schedule; stick
        // one of them. The campaign must implicate it, and the repaired
        // placement must route around it and pass the same campaign.
        let f = generators::xor_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 1, 2, 2).unwrap();
        let plans = vec![FaultPlan::named("stuck-0").with_stuck(0, DeviceState::Lrs)];
        let outcome =
            synthesize_with_repair(&Synthesizer::new(), &spec, &plans, &RepairConfig::new(8))
                .unwrap();
        assert_eq!(outcome.status, RepairStatus::Repaired);
        assert!(outcome.avoided.contains(&0), "cell 0 must be avoided");
        assert_eq!(outcome.attempts.len(), 1);
        assert!(outcome.attempts[0].failures > 0);
        assert_eq!(outcome.attempts[0].newly_implicated, vec![0]);
        let placement = outcome.placement.as_ref().unwrap();
        assert!(!placement.used_cells().contains(&0));
        assert!(placement.verify(&f));
        assert!(!outcome.report.as_ref().unwrap().any_failures());
    }

    #[test]
    fn infeasible_avoidance_degrades_gracefully() {
        // A 4-cell array with 2 dead cells cannot host XOR2's 4-cell
        // schedule: the loop must report Unrepairable, not error or panic.
        let f = generators::xor_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 1, 2, 2).unwrap();
        let plans = vec![FaultPlan::named("two-stuck")
            .with_stuck(0, DeviceState::Lrs)
            .with_stuck(1, DeviceState::Lrs)];
        let outcome =
            synthesize_with_repair(&Synthesizer::new(), &spec, &plans, &RepairConfig::new(4))
                .unwrap();
        assert!(!outcome.succeeded());
        assert!(matches!(outcome.status, RepairStatus::Unrepairable { .. }));
    }

    #[test]
    fn nimp_specs_are_rejected() {
        let f = generators::xor_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 2, 2, 2)
            .unwrap()
            .with_rop_kind(ROpKind::Nimp);
        let err = synthesize_with_repair(&Synthesizer::new(), &spec, &[], &RepairConfig::new(8))
            .unwrap_err();
        assert!(matches!(err, SynthError::InvalidConstraint { .. }));
    }

    #[test]
    fn out_of_range_plans_are_rejected() {
        let f = generators::xor_gate(2);
        let spec = SynthSpec::mixed_mode(&f, 1, 2, 2).unwrap();
        let plans = vec![FaultPlan::named("oob").with_stuck(99, DeviceState::Hrs)];
        let err = synthesize_with_repair(&Synthesizer::new(), &spec, &plans, &RepairConfig::new(8))
            .unwrap_err();
        assert!(matches!(err, SynthError::InvalidConstraint { .. }));
    }
}
