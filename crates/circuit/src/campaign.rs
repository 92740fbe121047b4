//! Fault-injection campaigns: execute a schedule against faulty arrays and
//! attribute every divergence to cells.
//!
//! A campaign crosses a compiled [`Schedule`] with a set of
//! [`FaultPlan`]s, running every input assignment across `trials` seeded
//! arrays per plan. Each execution is compared in lockstep against a
//! healthy reference run (restricted to the cells the schedule actually
//! uses), yielding:
//!
//! * the **first-divergence cycle** — the earliest schedule cycle at which
//!   any used cell's state departs from the healthy run;
//! * **per-cell attribution** — how often each cell was among the first
//!   divergent cells, classified as [`FaultClass::Stuck`],
//!   [`FaultClass::Transient`] or [`FaultClass::Variability`];
//! * **error rates per fault class** over all executions.
//!
//! The resulting [`CampaignReport`] serializes to JSON, and its implicated
//! cells feed the self-repairing synthesis loop in `mm-synth`: diagnose →
//! avoid → resynthesize.
//!
//! # Example
//!
//! ```
//! use mm_circuit::campaign::{run_campaign, CampaignConfig};
//! use mm_circuit::{MmCircuit, ROp, Schedule, Signal, VLeg, VOp};
//! use mm_boolfn::Literal;
//! use mm_device::{DeviceState, FaultPlan};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = MmCircuit::builder(2)
//!     .leg(VLeg::new(vec![VOp::new(Literal::Pos(1), Literal::Const0)]))
//!     .leg(VLeg::new(vec![VOp::new(Literal::Pos(2), Literal::Const0)]))
//!     .rop(ROp::nor(Signal::Leg(0), Signal::Leg(1)))
//!     .output(Signal::ROp(0))
//!     .build()?;
//! let schedule = Schedule::compile(&circuit)?;
//! let plans = vec![
//!     FaultPlan::named("control"),
//!     FaultPlan::named("stuck-out").with_stuck(2, DeviceState::Lrs),
//! ];
//! let report = run_campaign(&schedule, &plans, &CampaignConfig::default())?;
//! assert_eq!(report.plans[0].failures, 0);
//! assert!(report.plans[1].failures > 0);
//! let implicated: Vec<usize> = report.plans[1].attribution.iter().map(|a| a.cell).collect();
//! assert_eq!(implicated, vec![2]);
//! # Ok(())
//! # }
//! ```

use serde::{Deserialize, Serialize};

use mm_device::{ElectricalParams, FaultPlan, LineArray};
use mm_telemetry::{kv, Telemetry};

use crate::{CircuitError, Schedule};

/// Classification of a diagnosed divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultClass {
    /// A permanently stuck cell from the plan was among the first divergent
    /// cells.
    Stuck,
    /// The first divergence coincides with an injected transient flip
    /// (same cell, same cycle).
    Transient,
    /// Neither of the above: D2D/C2C variation, or an analog misread with
    /// no logical state divergence at all.
    Variability,
}

/// Configuration of a fault-injection campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Seeded trials per plan.
    ///
    /// A plan whose effective corner (its override, else `params`') draws
    /// nothing from the RNG ([`mm_device::Variability::is_deterministic`])
    /// gives the same result in every trial, so the campaign simulates one
    /// trial of it and weights that trial's counts by `trials`; the report
    /// is the same as if every trial had run. `trials × 2^n` must fit a
    /// `u32` (the report's `executions`).
    pub trials: u32,
    /// Base RNG seed; trial `t` reseeds the array with
    /// [`mm_device::seeds::trial_seed`] — `seed + (t << 16)` (wrapping), the
    /// same derivation the Monte-Carlo module uses — so campaign runs are
    /// reproducible from the report.
    pub seed: u64,
    /// Electrical parameters of the arrays (plans may override the
    /// variability corner).
    pub params: ElectricalParams,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            trials: 8,
            seed: 0xfa11,
            params: ElectricalParams::bfo(),
        }
    }
}

/// Failure attribution for one cell under one plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellAttribution {
    /// The cell index.
    pub cell: usize,
    /// The fault class the cell's divergences belong to.
    pub class: FaultClass,
    /// Number of executions in which this cell was among the *first*
    /// divergent cells.
    pub divergences: u32,
    /// The earliest cycle at which this cell was seen diverging.
    pub first_cycle: usize,
}

/// Campaign results for one fault plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// The plan that was executed, verbatim.
    pub plan: FaultPlan,
    /// Total executions: `trials × 2^n` input evaluations.
    pub executions: u32,
    /// Executions whose outputs differed from the healthy reference.
    pub failures: u32,
    /// `failures / executions`.
    pub error_rate: f64,
    /// Executions whose internal state diverged but whose outputs were
    /// still correct (the fault was logically masked).
    pub masked_divergences: u32,
    /// Earliest divergence cycle across all executions, if any diverged.
    pub first_divergence_cycle: Option<usize>,
    /// Failing executions whose first divergence implicated a stuck cell.
    pub stuck_failures: u32,
    /// Failing executions whose first divergence coincided with an
    /// injected transient flip.
    pub transient_failures: u32,
    /// Remaining failures (variation or analog misreads).
    pub variability_failures: u32,
    /// Per-cell attribution, most-implicated cells first.
    pub attribution: Vec<CellAttribution>,
}

/// The structured result of a campaign: one [`PlanReport`] per plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Cell count of the schedule under test.
    pub n_cells: usize,
    /// Input count of the schedule under test.
    pub n_inputs: u8,
    /// Trials per plan.
    pub trials: u32,
    /// Base seed the trial seeds were derived from.
    pub seed: u64,
    /// One report per plan, in input order.
    pub plans: Vec<PlanReport>,
}

impl CampaignReport {
    /// Whether any plan produced at least one failing execution.
    pub fn any_failures(&self) -> bool {
        self.plans.iter().any(|p| p.failures > 0)
    }

    /// Pretty-printed JSON export of the full report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign reports always serialize")
    }
}

/// Runs a fault-injection campaign: every plan × every trial seed × every
/// input assignment, compared in lockstep against a healthy reference run.
///
/// # Errors
///
/// Returns [`CircuitError::FaultPlanOutOfRange`] when a plan references a
/// cell the schedule's array does not have, and
/// [`CircuitError::CampaignTooLarge`] when `trials × 2^n` executions per
/// plan do not fit a `u32`.
pub fn run_campaign(
    schedule: &Schedule,
    plans: &[FaultPlan],
    config: &CampaignConfig,
) -> Result<CampaignReport, CircuitError> {
    run_campaign_traced(schedule, plans, config, &Telemetry::disabled())
}

/// [`run_campaign`] with telemetry: the whole campaign runs inside a
/// `campaign` span, and every finished plan emits a `campaign.plan` point
/// (name, executions, failures, masked divergences). A disabled handle
/// makes this identical to the plain entry point.
///
/// # Errors
///
/// As [`run_campaign`].
pub fn run_campaign_traced(
    schedule: &Schedule,
    plans: &[FaultPlan],
    config: &CampaignConfig,
    telemetry: &Telemetry,
) -> Result<CampaignReport, CircuitError> {
    let n = schedule.n_cells();
    for plan in plans {
        if let Some(cell) = plan.max_cell().filter(|&c| c >= n) {
            return Err(CircuitError::FaultPlanOutOfRange {
                plan: plan.name.clone(),
                cell,
                n_cells: n,
            });
        }
    }
    let too_large = || CircuitError::CampaignTooLarge {
        trials: config.trials,
        n_inputs: schedule.n_inputs(),
    };
    let n_assignments = 1u32
        .checked_shl(u32::from(schedule.n_inputs()))
        .ok_or_else(too_large)?;
    let executions = config
        .trials
        .checked_mul(n_assignments)
        .ok_or_else(too_large)?;
    let _campaign_span = telemetry.span_with(
        "campaign",
        vec![
            kv("n_plans", plans.len()),
            kv("trials", config.trials),
            kv("n_cells", n),
        ],
    );
    let used = schedule.used_cells();

    // Healthy reference: expected outputs and per-cycle state snapshots for
    // every input assignment, computed once on an ideal array.
    let mut ideal = LineArray::ideal(n);
    let mut expected = Vec::with_capacity(n_assignments as usize);
    let mut reference: Vec<Vec<Vec<bool>>> = Vec::with_capacity(n_assignments as usize);
    for x in 0..n_assignments {
        let mut states = Vec::with_capacity(schedule.cycles().len());
        let out = schedule.execute_with(x, &mut ideal, |_, a| states.push(a.states()));
        expected.push(out);
        reference.push(states);
    }

    let mut plan_reports = Vec::with_capacity(plans.len());
    for plan in plans {
        let stuck = plan.stuck_cells();
        // One array per plan, reseeded per trial (stuck cells survive the
        // reseed and keep the healthy cells' draws aligned).
        let mut array = plan.build_array(n, config.params, config.seed);
        // Without variation every trial replays the same executions: run
        // the first and count each of its outcomes `trials` times.
        let corner = plan.variability.unwrap_or(config.params.variability);
        let (simulated, weight) = if corner.is_deterministic() {
            (config.trials.min(1), config.trials)
        } else {
            (config.trials, 1)
        };
        let mut failures = 0u32;
        let mut masked = 0u32;
        let mut class_failures = [0u32; 3]; // Stuck, Transient, Variability
        let mut first_divergence: Option<usize> = None;
        // cell -> (divergence count, earliest cycle)
        let mut per_cell: std::collections::BTreeMap<usize, (u32, usize)> =
            std::collections::BTreeMap::new();

        for t in 0..simulated {
            array.reseed(mm_device::seeds::trial_seed(config.seed, t));
            for x in 0..n_assignments {
                let mut divergence: Option<(usize, Vec<usize>)> = None;
                let outputs = schedule.execute_with(x, &mut array, |i, a| {
                    for cell in plan.flips_at(i) {
                        a.flip_state(cell);
                    }
                    if divergence.is_none() {
                        let diff: Vec<usize> = used
                            .iter()
                            .copied()
                            .filter(|&c| a.state(c).to_bool() != reference[x as usize][i][c])
                            .collect();
                        if !diff.is_empty() {
                            divergence = Some((i, diff));
                        }
                    }
                });
                let failed = outputs != expected[x as usize];
                if let Some((cycle, cells)) = &divergence {
                    if first_divergence.is_none_or(|f| *cycle < f) {
                        first_divergence = Some(*cycle);
                    }
                    for &c in cells {
                        let entry = per_cell.entry(c).or_insert((0, *cycle));
                        entry.0 += weight;
                        entry.1 = entry.1.min(*cycle);
                    }
                    if !failed {
                        masked += weight;
                    }
                }
                if failed {
                    failures += weight;
                    let class = classify(divergence.as_ref(), &stuck, plan);
                    class_failures[class as usize] += weight;
                }
            }
        }

        let mut attribution: Vec<CellAttribution> = per_cell
            .into_iter()
            .map(|(cell, (divergences, first_cycle))| CellAttribution {
                cell,
                class: cell_class(cell, &stuck, plan),
                divergences,
                first_cycle,
            })
            .collect();
        attribution.sort_by(|a, b| b.divergences.cmp(&a.divergences).then(a.cell.cmp(&b.cell)));

        telemetry.point(
            "campaign.plan",
            vec![
                kv("plan", plan.name.clone()),
                kv("executions", executions),
                kv("failures", failures),
                kv("masked", masked),
            ],
        );
        plan_reports.push(PlanReport {
            plan: plan.clone(),
            executions,
            failures,
            error_rate: f64::from(failures) / f64::from(executions.max(1)),
            masked_divergences: masked,
            first_divergence_cycle: first_divergence,
            stuck_failures: class_failures[FaultClass::Stuck as usize],
            transient_failures: class_failures[FaultClass::Transient as usize],
            variability_failures: class_failures[FaultClass::Variability as usize],
            attribution,
        });
    }

    Ok(CampaignReport {
        n_cells: n,
        n_inputs: schedule.n_inputs(),
        trials: config.trials,
        seed: config.seed,
        plans: plan_reports,
    })
}

/// Classifies one failing execution from its first divergence.
fn classify(
    divergence: Option<&(usize, Vec<usize>)>,
    stuck: &[usize],
    plan: &FaultPlan,
) -> FaultClass {
    match divergence {
        Some((cycle, cells)) => {
            if cells.iter().any(|c| stuck.binary_search(c).is_ok()) {
                FaultClass::Stuck
            } else if cells.iter().any(|c| {
                plan.transients
                    .iter()
                    .any(|t| t.cell == *c && t.cycle == *cycle)
            }) {
                FaultClass::Transient
            } else {
                FaultClass::Variability
            }
        }
        // Outputs wrong with no logical divergence: an analog misread.
        None => FaultClass::Variability,
    }
}

/// The static class of a cell under a plan (for attribution rows).
fn cell_class(cell: usize, stuck: &[usize], plan: &FaultPlan) -> FaultClass {
    if stuck.binary_search(&cell).is_ok() {
        FaultClass::Stuck
    } else if plan.transients.iter().any(|t| t.cell == cell) {
        FaultClass::Transient
    } else {
        FaultClass::Variability
    }
}

#[cfg(test)]
mod tests {
    use mm_boolfn::Literal;
    use mm_device::{DeviceState, Variability};

    use super::*;
    use crate::{MmCircuit, ROp, Signal, VLeg, VOp};

    fn nor_schedule() -> Schedule {
        let circuit = MmCircuit::builder(2)
            .leg(VLeg::new(vec![VOp::new(Literal::Pos(1), Literal::Const0)]))
            .leg(VLeg::new(vec![VOp::new(Literal::Pos(2), Literal::Const0)]))
            .rop(ROp::nor(Signal::Leg(0), Signal::Leg(1)))
            .output(Signal::ROp(0))
            .build()
            .unwrap();
        Schedule::compile(&circuit).unwrap()
    }

    #[test]
    fn healthy_control_has_no_failures() {
        let schedule = nor_schedule();
        let report = run_campaign(
            &schedule,
            &[FaultPlan::named("control")],
            &CampaignConfig::default(),
        )
        .unwrap();
        let p = &report.plans[0];
        assert_eq!(p.failures, 0);
        assert_eq!(p.masked_divergences, 0);
        assert_eq!(p.first_divergence_cycle, None);
        assert!(p.attribution.is_empty());
        assert!(!report.any_failures());
        assert_eq!(p.executions, CampaignConfig::default().trials * 4);
    }

    #[test]
    fn stuck_output_is_detected_and_attributed() {
        let schedule = nor_schedule();
        let plan = FaultPlan::named("stuck-out").with_stuck(2, DeviceState::Lrs);
        let report = run_campaign(&schedule, &[plan], &CampaignConfig::default()).unwrap();
        let p = &report.plans[0];
        // NOR is 0 for 3 of 4 assignments; the stuck-LRS output reads 1.
        assert_eq!(p.failures, 3 * report.trials);
        assert_eq!(p.stuck_failures, p.failures);
        assert_eq!(p.transient_failures, 0);
        assert_eq!(p.attribution.len(), 1, "only the stuck cell");
        assert_eq!(p.attribution[0].cell, 2);
        assert_eq!(p.attribution[0].class, FaultClass::Stuck);
        // The output cell is pre-set to 1 but stuck cells match that until
        // the R-op tries to RESET it — or diverge at cycle 0 if their init
        // differs. Either way a first cycle exists.
        assert!(p.first_divergence_cycle.is_some());
        assert!((p.error_rate - 0.75).abs() < 1e-9);
    }

    #[test]
    fn transient_flip_is_classified_as_transient() {
        let schedule = nor_schedule();
        // Cycles: 0 = V-op, 1 = R-op, 2 = read. Flip the output right after
        // the R-op computes it: every assignment reads the wrong value.
        let plan = FaultPlan::named("upset").with_transient(2, 1);
        let report = run_campaign(&schedule, &[plan], &CampaignConfig::default()).unwrap();
        let p = &report.plans[0];
        assert_eq!(p.failures, 4 * report.trials);
        assert_eq!(p.transient_failures, p.failures);
        assert_eq!(p.first_divergence_cycle, Some(1));
        assert_eq!(p.attribution[0].cell, 2);
        assert_eq!(p.attribution[0].class, FaultClass::Transient);
    }

    #[test]
    fn variability_failures_fall_in_the_variability_class() {
        let schedule = nor_schedule();
        let plan = FaultPlan::named("harsh").with_variability(Variability {
            d2d_sigma: 0.6,
            c2c_sigma: 0.2,
        });
        let config = CampaignConfig {
            trials: 64,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&schedule, &[plan], &config).unwrap();
        let p = &report.plans[0];
        assert!(p.failures > 0, "harsh corner must break some executions");
        assert_eq!(p.stuck_failures, 0);
        assert_eq!(p.transient_failures, 0);
        assert_eq!(p.variability_failures, p.failures);
    }

    #[test]
    fn out_of_range_plan_is_rejected() {
        let schedule = nor_schedule();
        let plan = FaultPlan::named("oob").with_stuck(9, DeviceState::Hrs);
        let err = run_campaign(&schedule, &[plan], &CampaignConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            CircuitError::FaultPlanOutOfRange {
                cell: 9,
                n_cells: 3,
                ..
            }
        ));
    }

    /// `x1 x2 x3 → NOR(NOR(x1, x2), x3)`: two chained R-ops over three
    /// inputs, so divergences can start at several cycles and cells.
    fn chain_schedule() -> Schedule {
        let circuit = MmCircuit::builder(3)
            .leg(VLeg::new(vec![VOp::new(Literal::Pos(1), Literal::Const0)]))
            .leg(VLeg::new(vec![VOp::new(Literal::Pos(2), Literal::Const0)]))
            .leg(VLeg::new(vec![VOp::new(Literal::Pos(3), Literal::Const0)]))
            .rop(ROp::nor(Signal::Leg(0), Signal::Leg(1)))
            .rop(ROp::nor(Signal::ROp(0), Signal::Leg(2)))
            .output(Signal::ROp(1))
            .build()
            .unwrap();
        Schedule::compile(&circuit).unwrap()
    }

    /// The report a campaign must give, built by simulating every trial:
    /// trial `t` runs as a one-trial campaign at the seed the full campaign
    /// derives for it, and the per-trial reports are folded together
    /// (counts summed, cycles minimized, attribution re-sorted).
    fn trial_by_trial(
        schedule: &Schedule,
        plans: &[FaultPlan],
        config: &CampaignConfig,
    ) -> (CampaignReport, Vec<CampaignReport>) {
        let singles: Vec<CampaignReport> = (0..config.trials)
            .map(|t| {
                let single = CampaignConfig {
                    trials: 1,
                    seed: mm_device::seeds::trial_seed(config.seed, t),
                    ..*config
                };
                run_campaign(schedule, plans, &single).unwrap()
            })
            .collect();
        let executions = config.trials << schedule.n_inputs();
        let folded = plans
            .iter()
            .enumerate()
            .map(|(p, plan)| {
                let runs: Vec<&PlanReport> = singles.iter().map(|r| &r.plans[p]).collect();
                let sum = |count: fn(&PlanReport) -> u32| runs.iter().map(|r| count(r)).sum();
                let mut per_cell = std::collections::BTreeMap::<usize, CellAttribution>::new();
                for a in runs.iter().flat_map(|r| &r.attribution) {
                    per_cell
                        .entry(a.cell)
                        .and_modify(|m| {
                            m.divergences += a.divergences;
                            m.first_cycle = m.first_cycle.min(a.first_cycle);
                        })
                        .or_insert_with(|| a.clone());
                }
                let mut attribution: Vec<CellAttribution> = per_cell.into_values().collect();
                attribution
                    .sort_by(|a, b| b.divergences.cmp(&a.divergences).then(a.cell.cmp(&b.cell)));
                let failures = sum(|r| r.failures);
                PlanReport {
                    plan: plan.clone(),
                    executions,
                    failures,
                    error_rate: f64::from(failures) / f64::from(executions.max(1)),
                    masked_divergences: sum(|r| r.masked_divergences),
                    first_divergence_cycle: runs
                        .iter()
                        .filter_map(|r| r.first_divergence_cycle)
                        .min(),
                    stuck_failures: sum(|r| r.stuck_failures),
                    transient_failures: sum(|r| r.transient_failures),
                    variability_failures: sum(|r| r.variability_failures),
                    attribution,
                }
            })
            .collect();
        let report = CampaignReport {
            n_cells: schedule.n_cells(),
            n_inputs: schedule.n_inputs(),
            trials: config.trials,
            seed: config.seed,
            plans: folded,
        };
        (report, singles)
    }

    /// Stuck, transient and mixed plans on the default (variation-free)
    /// corner, for both schedules.
    fn deterministic_plans(schedule: &Schedule) -> Vec<FaultPlan> {
        let out = schedule.n_cells() - 1;
        vec![
            FaultPlan::named("control"),
            FaultPlan::named("stuck").with_stuck(0, DeviceState::Lrs),
            FaultPlan::named("stuck-out").with_stuck(out, DeviceState::Hrs),
            FaultPlan::named("transient")
                .with_transient(out, 1)
                .with_transient(1, 0),
            FaultPlan::named("mixed")
                .with_stuck(1, DeviceState::Hrs)
                .with_transient(0, 0)
                .with_transient(out, 2),
            FaultPlan::named("none-override").with_variability(Variability::NONE),
        ]
    }

    #[test]
    fn deterministic_corners_report_every_trial_exactly() {
        for schedule in [nor_schedule(), chain_schedule()] {
            let plans = deterministic_plans(&schedule);
            let one = run_campaign(
                &schedule,
                &plans,
                &CampaignConfig {
                    trials: 1,
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
            assert!(one.any_failures(), "the plans must break something");
            for trials in [0, 1, 2, 7, 64] {
                let config = CampaignConfig {
                    trials,
                    ..CampaignConfig::default()
                };
                let report = run_campaign(&schedule, &plans, &config).unwrap();
                let (expected, singles) = trial_by_trial(&schedule, &plans, &config);
                assert_eq!(report, expected, "{trials} trials");
                assert_eq!(report.to_json(), expected.to_json());
                // Every trial of a variation-free plan is the same trial.
                for single in &singles {
                    assert_eq!(single.plans, one.plans);
                }
                for (p, o) in report.plans.iter().zip(&one.plans) {
                    assert_eq!(p.executions, trials * o.executions);
                    assert_eq!(p.failures, trials * o.failures);
                    assert_eq!(p.masked_divergences, trials * o.masked_divergences);
                    assert_eq!(p.stuck_failures, trials * o.stuck_failures);
                    assert_eq!(p.transient_failures, trials * o.transient_failures);
                    assert_eq!(p.variability_failures, trials * o.variability_failures);
                    if trials == 0 {
                        continue; // `expected` already pinned the empty report
                    }
                    assert_eq!(p.first_divergence_cycle, o.first_divergence_cycle);
                    assert_eq!(p.attribution.len(), o.attribution.len());
                    for (a, b) in p.attribution.iter().zip(&o.attribution) {
                        assert_eq!(a.divergences, trials * b.divergences);
                        assert_eq!(
                            (a.cell, a.class, a.first_cycle),
                            (b.cell, b.class, b.first_cycle)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn variable_corners_still_simulate_every_trial_seed() {
        let schedule = nor_schedule();
        let plans = vec![
            FaultPlan::named("low").with_variability(Variability::LOW),
            FaultPlan::named("low-stuck")
                .with_variability(Variability::LOW)
                .with_stuck(1, DeviceState::Hrs),
        ];
        let config = CampaignConfig {
            trials: 64,
            seed: 1,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&schedule, &plans, &config).unwrap();
        let (expected, singles) = trial_by_trial(&schedule, &plans, &config);
        assert_eq!(report, expected);
        // A mild corner breaks a few trials and leaves most alone, so the
        // per-trial outcomes depend on the seed and the totals are not a
        // multiple of the trial count.
        let low: Vec<u32> = singles
            .iter()
            .map(|r| r.plans[0].failures + r.plans[0].masked_divergences)
            .collect();
        assert!(low.contains(&0) && low.iter().any(|&d| d > 0));
        let low = &report.plans[0];
        assert!(low.failures > 0 && !low.failures.is_multiple_of(config.trials));
        assert_eq!(low.variability_failures, low.failures);
    }

    #[test]
    fn campaigns_too_large_for_the_counts_are_rejected() {
        let schedule = nor_schedule();
        let plans = [FaultPlan::named("stuck-out").with_stuck(2, DeviceState::Lrs)];
        // 2 inputs: 4 executions per trial, so a quarter of u32::MAX fits.
        let config = CampaignConfig {
            trials: u32::MAX / 4,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&schedule, &plans, &config).unwrap();
        assert_eq!(report.plans[0].executions, config.trials * 4);
        assert_eq!(report.plans[0].failures, config.trials * 3);
        let config = CampaignConfig {
            trials: u32::MAX / 4 + 1,
            ..config
        };
        let err = run_campaign(&schedule, &plans, &config).unwrap_err();
        assert_eq!(
            err,
            CircuitError::CampaignTooLarge {
                trials: u32::MAX / 4 + 1,
                n_inputs: 2,
            }
        );
        assert!(err.to_string().contains("1073741824 trials"), "{err}");
    }

    #[test]
    fn reports_are_deterministic_and_round_trip_json() {
        let schedule = nor_schedule();
        let plans = vec![
            FaultPlan::named("control"),
            FaultPlan::named("stuck").with_stuck(0, DeviceState::Lrs),
            FaultPlan::named("corner").with_variability(Variability::HIGH),
        ];
        let config = CampaignConfig::default();
        let a = run_campaign(&schedule, &plans, &config).unwrap();
        let b = run_campaign(&schedule, &plans, &config).unwrap();
        assert_eq!(a, b, "same config must reproduce the same report");

        let json = a.to_json();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
