//! `train_agents`: rounds of planner, controller and predictor training
//! epochs on the JARVIS presets' data, the planner and controller
//! data-parallel over a [`THREADS`]-worker `WorkerPool`.
//!
//! Each round starts fresh models from a seed of its own and trains
//! [`PLANNER_EPOCHS`], [`CONTROLLER_EPOCHS`] and [`PREDICTOR_EPOCHS`]
//! epochs, one `train` call per epoch so each epoch is timed and its loss
//! read. The reported epoch latency is the median planner epoch: the
//! planner has the most epochs, and a median over all epochs would sit in
//! the slow tail of the planner's, since the other models' epochs are
//! longer.

use crate::stats::{median, mix, peak_rss_mb};
use crate::{load_system, print_value, timed_setup, Report, THREADS};
use create_agents::bundle::{controller_to_tensors, planner_to_tensors, ACT_TEMPERATURE};
use create_agents::datasets::{collect_entropy, EntropySample};
use create_agents::io::NamedTensor;
use create_agents::{
    vocab, AgentSystem, ControllerModel, ControllerTrainScratch, EntropyPredictor, OutlierSpec,
    PlannerModel, PlannerTrainScratch,
};
use create_tensor::Precision;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const PLANNER_EPOCHS: usize = 5;
const CONTROLLER_EPOCHS: usize = 2;
const PREDICTOR_EPOCHS: usize = 2;
/// Learning rates of the cached JARVIS training.
pub const PLANNER_LR: f32 = 3e-3;
pub const CONTROLLER_LR: f32 = 2e-3;
const PREDICTOR_LR: f32 = 1.5e-3;
/// Predictor data: the golden controller's entropy on one rollout per
/// task of at most this many steps (a third of the set the cached
/// predictor trained on), so a predictor epoch does not dominate a round.
const ENTROPY_ROLLOUT_STEPS: usize = 200;
/// Samples of the bit-identity prefix, per model.
const PREFIX: usize = 32;

/// The training data of the JARVIS presets.
pub struct Data {
    pub system: AgentSystem,
    pub entropy: Vec<EntropySample>,
}

/// Loads the agents from the cache and rebuilds the predictor's entropy
/// samples from the deployed golden controller.
pub fn load_data() -> Result<Data, String> {
    let system = load_system()?;
    let controller = system.deploy_controller(Precision::Int8);
    let entropy = collect_entropy(
        &controller,
        &system.tasks(),
        1,
        ENTROPY_ROLLOUT_STEPS,
        ACT_TEMPERATURE,
        0xE0,
    );
    Ok(Data { system, entropy })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Planner,
    Controller,
    Predictor,
}

/// One timed epoch.
#[derive(Debug, Clone, Copy)]
pub struct Epoch {
    pub model: Model,
    pub secs: f64,
    pub loss: f32,
    pub samples: usize,
}

/// Trains fresh models from `seed` for one round, the planner and
/// controller on [`THREADS`] workers.
pub fn run_round(data: &Data, seed: u64) -> Vec<Epoch> {
    let system = &data.system;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut epochs = Vec::new();
    let mut timed = |model: Model, samples: usize, train: &mut dyn FnMut() -> f32| {
        let t = Instant::now();
        let loss = train();
        epochs.push(Epoch {
            model,
            secs: t.elapsed().as_secs_f64(),
            loss,
            samples,
        });
    };

    let mut planner = PlannerModel::new(&system.planner_preset, &mut rng);
    let mut scratch = PlannerTrainScratch::default();
    for _ in 0..PLANNER_EPOCHS {
        timed(Model::Planner, system.plan_samples.len(), &mut || {
            planner.train_with_threads(
                &system.plan_samples,
                1,
                PLANNER_LR,
                Some(OutlierSpec::default()),
                &mut rng,
                THREADS,
                &mut scratch,
            )
        });
    }
    let mut controller = ControllerModel::new(&system.controller_preset, &mut rng);
    let mut scratch = ControllerTrainScratch::default();
    for _ in 0..CONTROLLER_EPOCHS {
        timed(Model::Controller, system.bc_samples.len(), &mut || {
            controller.train_with_threads(
                &system.bc_samples,
                1,
                CONTROLLER_LR,
                &mut rng,
                THREADS,
                &mut scratch,
            )
        });
    }
    let mut predictor = EntropyPredictor::new(vocab::N_SUBTASKS, &mut rng);
    for e in 0..PREDICTOR_EPOCHS as u64 {
        timed(Model::Predictor, data.entropy.len(), &mut || {
            predictor.train(&data.entropy, 1, PREDICTOR_LR, mix(seed, e))
        });
    }
    epochs
}

/// Checks that every model's loss fell from its first epoch of the round
/// to its last.
fn losses_fall(epochs: &[Epoch]) -> Result<(), String> {
    for model in [Model::Planner, Model::Controller, Model::Predictor] {
        let losses: Vec<f32> = epochs
            .iter()
            .filter(|e| e.model == model)
            .map(|e| e.loss)
            .collect();
        match (losses.first(), losses.last()) {
            (Some(first), Some(last)) if last < first => {}
            _ => return Err(format!("{model:?} losses did not fall: {losses:?}")),
        }
    }
    Ok(())
}

/// Whether two weight sets are bit-identical.
fn same_weights(a: &[NamedTensor], b: &[NamedTensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.shape == y.shape
                && x.data
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(y.data.iter().map(|v| v.to_bits()))
        })
}

/// Trains the planner and the controller for one epoch on a prefix of
/// their data at 1 and at [`THREADS`] workers and checks the weights are
/// bit-identical.
fn prefix_is_worker_invariant(data: &Data) -> Result<(), String> {
    let system = &data.system;
    let weights = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut planner = PlannerModel::new(&system.planner_preset, &mut rng);
        planner.train_with_threads(
            &system.plan_samples[..PREFIX],
            1,
            PLANNER_LR,
            Some(OutlierSpec::default()),
            &mut rng,
            threads,
            &mut PlannerTrainScratch::default(),
        );
        let mut controller = ControllerModel::new(&system.controller_preset, &mut rng);
        controller.train_with_threads(
            &system.bc_samples[..PREFIX],
            1,
            CONTROLLER_LR,
            &mut rng,
            threads,
            &mut ControllerTrainScratch::default(),
        );
        (
            planner_to_tensors(&planner),
            controller_to_tensors(&controller),
        )
    };
    let (p1, c1) = weights(1);
    let (pn, cn) = weights(THREADS);
    if !same_weights(&p1, &pn) || !same_weights(&c1, &cn) {
        return Err(format!(
            "weights after a {PREFIX}-sample prefix differ at 1 and {THREADS} workers"
        ));
    }
    Ok(())
}

pub fn run(seed: u64, window: Duration) -> Result<Report, String> {
    let (data, setup_s) = timed_setup(load_data)?;

    let start = Instant::now();
    let mut rounds = Vec::new();
    while start.elapsed() < window {
        rounds.push(run_round(&data, mix(seed, 200 + rounds.len() as u64)));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb()?;

    let mut correct = true;
    for (r, epochs) in rounds.iter().enumerate() {
        if let Err(e) = losses_fall(epochs) {
            eprintln!("[train_agents] round {r}: {e}");
            correct = false;
        }
    }
    if let Err(e) = prefix_is_worker_invariant(&data) {
        eprintln!("[train_agents] {e}");
        correct = false;
    }

    let epochs: Vec<Epoch> = rounds.into_iter().flatten().collect();
    let attempted = epochs.len() as u64;
    let failed = epochs.iter().filter(|e| !e.loss.is_finite()).count() as u64;
    let samples: usize = epochs.iter().map(|e| e.samples).sum();
    let planner_epoch_ms: Vec<f64> = epochs
        .iter()
        .filter(|e| e.model == Model::Planner)
        .map(|e| e.secs * 1e3)
        .collect();

    println!("train_agents: {attempted} epochs at {THREADS} workers in {elapsed:.3} s");
    print_value("train_samples_per_s", samples as f64 / elapsed, "1/s");

    let mut report = Report {
        correct,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    report.metric("ops_per_s", (attempted - failed) as f64 / elapsed, "1/s");
    report.metric("work_per_s", samples as f64 / elapsed, "1/s");
    report.metric("op_latency_p50_ms", median(&planner_epoch_ms), "ms");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use create_agents::presets::PlannerPreset;

    #[test]
    fn a_perturbed_weight_fails_the_identity_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let preset = PlannerPreset {
            proxy_layers: 1,
            proxy_hidden: 16,
            proxy_mlp: 32,
            proxy_heads: 2,
            ..PlannerPreset::jarvis()
        };
        let weights = planner_to_tensors(&PlannerModel::new(&preset, &mut rng));
        assert!(same_weights(&weights, &weights.clone()));
        let mut perturbed = weights.clone();
        let w = &mut perturbed[1].data[3];
        *w = f32::from_bits(w.to_bits() ^ 1);
        assert!(!same_weights(&weights, &perturbed));
    }

    #[test]
    fn losses_must_fall_for_every_model() {
        let epoch = |model, loss| Epoch {
            model,
            secs: 0.1,
            loss,
            samples: 1,
        };
        let mut epochs = vec![
            epoch(Model::Planner, 3.0),
            epoch(Model::Planner, 2.0),
            epoch(Model::Controller, 1.0),
            epoch(Model::Controller, 0.9),
            epoch(Model::Predictor, 0.2),
            epoch(Model::Predictor, 0.1),
        ];
        assert!(losses_fall(&epochs).is_ok());
        epochs[3].loss = 1.0;
        assert!(losses_fall(&epochs).is_err());
        epochs[3].loss = f32::NAN;
        assert!(losses_fall(&epochs).is_err());
    }
}
