use serde::{Deserialize, Serialize};

use crate::MmCircuit;

/// The paper's cost figures for a mixed-mode circuit (Table IV columns).
///
/// `n_steps` counts compute cycles only (`N_St = N_VS + N_R`): V-op steps
/// execute in parallel across legs, R-ops are serialized on a line array.
/// Initialization and readout cycles — which the paper reports separately
/// in its Fig. 2 walkthrough — are part of [`Schedule`](crate::Schedule),
/// not of these metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct Metrics {
    /// Number of R-ops (`N_R`).
    pub n_rops: usize,
    /// Number of V-legs (`N_L`).
    pub n_legs: usize,
    /// Number of V-op steps per leg (`N_VS`, the longest leg).
    pub n_vsteps: usize,
    /// Total number of V-ops across legs (`N_V`).
    pub n_vops: usize,
    /// Total compute steps (`N_St = N_VS + N_R`).
    pub n_steps: usize,
    /// Devices by the paper's formula `N_Dev = 2·N_R + N_O` (for circuits
    /// whose outputs are all R-ops; see [`Metrics::n_devices_structural`]).
    pub n_devices_formula: usize,
    /// Devices actually occupied by the schedule: legs + literal-feed
    /// devices + one output device per R-op (cascade inputs share their
    /// producer's device).
    pub n_devices_structural: usize,
    /// Number of circuit outputs (`N_O`).
    pub n_outputs: usize,
}

impl Metrics {
    pub(crate) fn of(circuit: &MmCircuit) -> Self {
        let n_rops = circuit.rops().len();
        let n_legs = circuit.legs().len();
        let n_vsteps = circuit.legs().iter().map(|l| l.len()).max().unwrap_or(0);
        let n_vops = circuit.legs().iter().map(|l| l.len()).sum();
        let n_outputs = circuit.outputs().len();
        // Structural devices: each leg is one device; each distinct literal
        // feeding an R-op is one preloaded device; each R-op owns its output
        // device. Leg/R-op inputs of R-ops reuse those devices.
        let n_devices_structural = n_legs + circuit.literal_feeds().len() + n_rops;
        Self {
            n_rops,
            n_legs,
            n_vsteps,
            n_vops,
            n_steps: n_vsteps + n_rops,
            n_devices_formula: 2 * n_rops + n_outputs,
            n_devices_structural,
            n_outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use mm_boolfn::Literal;

    use crate::{MmCircuit, ROp, Signal, VLeg, VOp};

    fn leg1(var: u8) -> VLeg {
        VLeg::new(vec![VOp::new(Literal::Pos(var), Literal::Const0)])
    }

    #[test]
    fn fig1_shaped_circuit_metrics() {
        // Shape of the paper's Fig. 1: 6 legs x 3 ops, 4 R-ops with two
        // cascades, outputs tapping R2 and R4.
        let mut b = MmCircuit::builder(4);
        for v in [1u8, 2, 3, 4, 1, 2] {
            b = b.leg(VLeg::new(vec![
                VOp::new(Literal::Pos(v), Literal::Const0),
                VOp::new(Literal::Pos(v), Literal::Pos(v)),
                VOp::new(Literal::Const0, Literal::Pos(v)),
            ]));
        }
        let c = b
            .rop(ROp::nor(Signal::Leg(0), Signal::Leg(1)))
            .rop(ROp::nor(Signal::ROp(0), Signal::Leg(2)))
            .rop(ROp::nor(Signal::Leg(3), Signal::Leg(4)))
            .rop(ROp::nor(Signal::ROp(2), Signal::Leg(5)))
            .output(Signal::ROp(1))
            .output(Signal::ROp(3))
            .build()
            .unwrap();
        let m = c.metrics();
        assert_eq!(m.n_rops, 4);
        assert_eq!(m.n_legs, 6);
        assert_eq!(m.n_vsteps, 3);
        assert_eq!(m.n_vops, 18);
        assert_eq!(m.n_steps, 7, "paper: 3 V-op cycles + 4 serialized R-ops");
        assert_eq!(m.n_devices_formula, 10, "paper: N_Dev = 2*4 + 2");
        assert_eq!(
            m.n_devices_structural, 10,
            "6 legs + 4 R-outputs, cascades share"
        );
    }

    #[test]
    fn literal_feeds_add_devices() {
        let c = MmCircuit::builder(2)
            .leg(leg1(1))
            .rop(ROp::nor(Signal::Leg(0), Signal::Literal(Literal::Pos(2))))
            .output(Signal::ROp(0))
            .build()
            .unwrap();
        let m = c.metrics();
        assert_eq!(m.n_devices_structural, 3); // leg + literal device + R-out
        assert_eq!(m.n_devices_formula, 3); // 2*1 + 1
    }

    #[test]
    fn v_only_circuit() {
        let c = MmCircuit::builder(2)
            .leg(leg1(1))
            .output(Signal::Leg(0))
            .build()
            .unwrap();
        let m = c.metrics();
        assert_eq!(m.n_rops, 0);
        assert_eq!(m.n_steps, 1);
        assert_eq!(m.n_devices_structural, 1);
    }
}
