//! The benchmark's workloads. Each one is a list of scenarios that one
//! operation runs through the sweep fan-out, plus the reason it exists.

use soc_bench::Scale;
use soc_scenario::ScenarioSpec;
use soc_sim::{ProtocolChoice, Scenario};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All seven protocols at smoke scale (300 nodes, 6 h, λ = 0.5): what
    /// `repro fig4`–`fig8` users run.
    PaperSweep,
    /// One HID-CAN run at 10⁴ nodes (the `large-n` shape, 10 simulated min).
    Scale10k,
    /// HID-CAN at 2000 nodes under churn 0.9, MMPP bursts, blackholes and
    /// iid loss.
    ChurnHostile,
}

const SCALE_10K: &str = include_str!("../workloads/scale-10k.scn");
const CHURN_HOSTILE: &str = include_str!("../workloads/churn-hostile.scn");

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::Scale10k,
        Workload::ChurnHostile,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::Scale10k => "scale-10k",
            Workload::ChurnHostile => "churn-hostile",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario file behind a single-run workload, with its seed
    /// replaced by `seed` (`None` for the sweep).
    pub fn spec(self, seed: u64) -> Option<ScenarioSpec> {
        let text = match self {
            Workload::PaperSweep => return None,
            Workload::Scale10k => SCALE_10K,
            Workload::ChurnHostile => CHURN_HOSTILE,
        };
        let mut spec = ScenarioSpec::parse(text).expect("bundled workload file parses");
        spec.scenario.seed = seed;
        Some(spec)
    }

    /// The scenarios (sweep cells) one operation runs at `seed`. The first
    /// cell is always HID-CAN; the isolated layer kernels take their input
    /// shape from it.
    pub fn scenarios(self, seed: u64) -> Vec<Scenario> {
        match self.spec(seed) {
            Some(spec) => vec![spec.scenario],
            None => ProtocolChoice::ALL
                .iter()
                .map(|&p| Scale::smoke().scenario(p).lambda(0.5).seed(seed))
                .collect(),
        }
    }
}
