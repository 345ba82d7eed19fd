//! The traced run (`--trace 1`): the per-layer breakdown along the
//! planner → controller → accelerator → environment pipeline, plus the
//! serving, sweep, training and kernel layers.
//!
//! Missions run inside `MissionSession::run`, which has no hooks, so the
//! run steps a sample of the workload's missions through a copy of its
//! loop ([`traced_trial`]) that times the benchmark's own calls into each
//! layer's public functions. The copy must reproduce the session's
//! outcome bit for bit, which is checked on every mission; a mission that
//! does not is a failed operation. Each mission also runs untraced, so
//! the time the traced calls leave unexplained and the cost of tracing
//! itself are measured on the same missions.
//!
//! Every traced run reports every layer. Layers the workload does not
//! use are measured on the other workloads' inputs: the serving layers on
//! the `serve_golden` engine, the sweep layers on one `sweep_undervolt`
//! round, the training layers on one `train_agents` round.

use crate::harness::{closed_loop, Stop};
use crate::serve_golden::{base_seed, client, start_stack, TASK};
use crate::stats::{median, mix, ns, ns_per_call};
use crate::sweep_undervolt::{self, grid, round_seed};
use crate::train_agents::{self, Epoch, Model};
use crate::{load_system, work_dir, Report, Workload, THREADS};
use create_accel::energy::{EnergyMeter, InferenceCost};
use create_accel::gemm::GemmBackendKind;
use create_accel::{AccelConfig, Accelerator, Component, LayerCtx, Ldo, Unit};
use create_agents::{
    ControllerModel, ControllerScratch, ControllerTrainScratch, OutlierSpec, PlannerModel,
    PlannerScratch, PlannerTrainScratch,
};
use create_core::engine::derive_seed;
use create_core::prelude::*;
use create_env::{Subtask, TaskId, World};
use create_serve::{request_seed, MissionRequest};
use create_tensor::{FloatBackendKind, Matrix, Precision, QuantMatrix, QuantParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Golden missions in the sample of `serve_golden` and `train_agents`.
const GOLDEN_MISSIONS: u64 = 24;
/// Pings timed on an idle connection.
const PINGS: usize = 200;
/// In-process submissions per client of the serving probe.
const SUBMITS_PER_CLIENT: usize = 20;
/// Batch length of the kernel micro-measurements.
const KERNEL_BATCH: Duration = Duration::from_millis(20);
/// The share of untraced time per step the traced calls may leave
/// unexplained; README.md states it.
const ATTRIBUTION_BOUND: f64 = 0.10;

/// Time and calls of one layer's traced function.
#[derive(Debug, Default, Clone, Copy)]
struct Timer {
    ns: f64,
    calls: u64,
}

impl Timer {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += ns(t.elapsed());
        self.calls += 1;
        r
    }

    fn us_per_call(&self) -> Option<f64> {
        (self.calls > 0).then(|| self.ns / 1e3 / self.calls as f64)
    }
}

/// What the traced missions attribute to each layer, plus the
/// accelerators' counters.
#[derive(Debug, Default)]
struct Layers {
    planner: Timer,
    controller: Timer,
    predictor: Timer,
    observe: Timer,
    step: Timer,
    macs: u64,
    flips: u64,
    ad_cleared: u64,
}

impl Layers {
    fn attributed_ns(&self) -> f64 {
        self.planner.ns + self.controller.ns + self.predictor.ns + self.observe.ns + self.step.ns
    }
}

/// `run_trial_with`'s mission loop with each layer call timed. Only the
/// always-on phase gate without a burst budget is reproduced; every
/// workload config has it.
fn traced_trial(
    dep: &Deployment,
    task: TaskId,
    config: &CreateConfig,
    seed: u64,
    scratch: &mut (PlannerScratch, ControllerScratch),
    layers: &mut Layers,
) -> MissionOutcome {
    assert!(
        config.controller_phase == PhaseGate::Always && config.controller_burst.is_none(),
        "the traced mission loop reproduces ungated missions only"
    );
    let (planner_scratch, controller_scratch) = scratch;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51EED);
    let mut world = World::for_task(task, seed);
    let mut planner_accel = Accelerator::new(
        AccelConfig {
            injector: config
                .planner_error
                .map(|e| e.injector(dep.planner_preset.injection_scale)),
            ad_enabled: config.planner_ad,
            scheme: config.scheme,
            bound_scale: config.ad_bound_scale,
            ..AccelConfig::default()
        },
        seed ^ 0x9A,
    );
    planner_accel.set_voltage(config.planner_voltage);
    let mut ctrl_accel = Accelerator::new(
        AccelConfig {
            injector: config
                .controller_error
                .map(|e| e.injector(dep.controller_preset.injection_scale)),
            ad_enabled: config.controller_ad,
            scheme: config.scheme,
            bound_scale: config.ad_bound_scale,
            ..AccelConfig::default()
        },
        seed ^ 0xC7,
    );
    let mut ldo = Ldo::new();
    match &config.voltage {
        VoltageControl::Fixed(v) => {
            ldo.set_target(*v);
        }
        VoltageControl::Adaptive { policy, .. } => {
            ldo.set_target(policy.voltage_for(0.0));
        }
    }
    ctrl_accel.set_voltage(ldo.output());

    let planner_model = if config.wr {
        &dep.planner_wr
    } else {
        &dep.planner
    };
    let planner_cost = dep.planner_preset.inference_cost();
    let ctrl_cost = dep.controller_preset.inference_cost();
    let pred_cost = dep.predictor_preset.inference_cost();
    let mut meter = EnergyMeter::new();
    let overhead = 1.0 + config.scheme.static_overhead();
    let scaled = |cost: &InferenceCost, factor: f64| InferenceCost {
        macs: cost.macs * factor,
        dram_bytes: cost.dram_bytes,
        sram_bytes: cost.sram_bytes,
    };
    let accel_factor = |accel: &Accelerator, p0: u64, l0: u64| -> f64 {
        let dl = accel.logical_macs() - l0;
        if dl == 0 {
            1.0
        } else {
            (accel.macs() - p0) as f64 / dl as f64
        }
    };

    let (p0, l0) = (planner_accel.macs(), planner_accel.logical_macs());
    let mut plan = layers
        .planner
        .time(|| planner_model.decode_with(&mut planner_accel, task, &[], planner_scratch));
    meter.record(
        Unit::Planner,
        &scaled(
            &planner_cost,
            accel_factor(&planner_accel, p0, l0) * overhead,
        ),
        config.planner_voltage,
        config.precision,
    );
    let mut plans = 1u32;
    let mut completed: Vec<Subtask> = Vec::new();
    let mut plan_idx = 0usize;
    let mut subtask_steps = 0u32;
    world.set_subtask(plan[0]);

    let mut entropy_trace = Vec::new();
    let mut predicted_trace = Vec::new();
    let mut voltage_trace = Vec::new();
    let mut success = false;
    let mut step_in_mission = 0u64;
    let mut entropy_spikes = 0u64;

    while world.steps() < config.limits.max_steps {
        while world.subtask_complete() {
            completed.push(plan[plan_idx]);
            plan_idx += 1;
            subtask_steps = 0;
            if plan_idx < plan.len() {
                world.set_subtask(plan[plan_idx]);
            } else {
                break;
            }
        }
        if world.task_goal_met() {
            success = true;
            break;
        }
        if plan_idx >= plan.len() || subtask_steps >= config.limits.subtask_timeout {
            let (p0, l0) = (planner_accel.macs(), planner_accel.logical_macs());
            plan = layers.planner.time(|| {
                planner_model.decode_with(&mut planner_accel, task, &completed, planner_scratch)
            });
            meter.record(
                Unit::Planner,
                &scaled(
                    &planner_cost,
                    accel_factor(&planner_accel, p0, l0) * overhead,
                ),
                config.planner_voltage,
                config.precision,
            );
            plans += 1;
            plan_idx = 0;
            subtask_steps = 0;
            world.set_subtask(plan[0]);
        }

        let obs = layers.observe.time(|| world.observe());

        if let VoltageControl::Adaptive { policy, interval } = &config.voltage {
            if step_in_mission.is_multiple_of(u64::from(*interval)) {
                let predicted = layers.predictor.time(|| {
                    let image = obs.render_image();
                    dep.predictor.predict(&image, obs.subtask_token)
                });
                meter.record(
                    Unit::Predictor,
                    &pred_cost,
                    create_accel::timing::V_NOMINAL,
                    config.precision,
                );
                ldo.set_target(policy.voltage_for(predicted));
                ctrl_accel.set_voltage(ldo.output());
                if config.record_traces {
                    predicted_trace.push(predicted);
                }
            } else if config.record_traces {
                predicted_trace.push(f32::NAN);
            }
        }

        let (c0, cl0) = (ctrl_accel.macs(), ctrl_accel.logical_macs());
        let (action, entropy) = layers.controller.time(|| {
            dep.controller.act_with(
                &mut ctrl_accel,
                &obs,
                config.temperature,
                &mut rng,
                controller_scratch,
            )
        });
        meter.record(
            Unit::Controller,
            &scaled(&ctrl_cost, accel_factor(&ctrl_accel, c0, cl0) * overhead),
            ctrl_accel.voltage(),
            config.precision,
        );
        if entropy > ENTROPY_SPIKE_THRESHOLD {
            entropy_spikes += 1;
        }
        if config.record_traces {
            entropy_trace.push(entropy);
            voltage_trace.push(ctrl_accel.voltage());
        }
        layers.step.time(|| world.step(action));
        subtask_steps += 1;
        step_in_mission += 1;
    }
    if world.task_goal_met() {
        success = true;
    }
    meter.record_ldo(ldo.switching_energy());

    let mut ad = planner_accel.ad_stats();
    ad.merge(ctrl_accel.ad_stats());
    let mut scheme_events = planner_accel.scheme_stats();
    scheme_events.merge(ctrl_accel.scheme_stats());
    layers.macs += planner_accel.macs() + ctrl_accel.macs();
    layers.flips +=
        planner_accel.injection_stats().corrupted + ctrl_accel.injection_stats().corrupted;
    layers.ad_cleared += ad.cleared;

    MissionOutcome {
        success,
        steps: world.steps(),
        plans,
        meter,
        ldo_switches: ldo.switches(),
        entropy_trace,
        predicted_trace,
        voltage_trace,
        ad,
        scheme_events,
        entropy_spikes,
    }
}

/// The workload's sample of missions: `(task, config, seed)`.
fn mission_sample(workload: Workload, seed: u64) -> Vec<(TaskId, CreateConfig, u64)> {
    match workload {
        Workload::SweepUndervolt => {
            let base = round_seed(seed, 0);
            grid()
                .into_iter()
                .enumerate()
                .map(|(point, (task, _, config))| (task, config, derive_seed(base, point, 0)))
                .collect()
        }
        Workload::ServeGolden | Workload::TrainAgents => {
            let base = base_seed(seed);
            (0..GOLDEN_MISSIONS)
                .map(|id| (TASK, CreateConfig::golden(), request_seed(base, id)))
                .collect()
        }
    }
}

/// Mission-layer results of the sample.
struct MissionTrace {
    layers: Layers,
    missions: u64,
    mismatched: u64,
    steps: u64,
    plans: u64,
    untraced_ns: f64,
    traced_ns: f64,
}

/// Runs every sample mission untraced through a `MissionSession`, then
/// traced, alternating so drift hits both alike.
fn trace_missions(dep: &Deployment, sample: &[(TaskId, CreateConfig, u64)]) -> MissionTrace {
    let mut session = MissionSession::warmed(dep);
    let mut scratch = (PlannerScratch::default(), ControllerScratch::default());
    let mut layers = Layers::default();
    let (mut untraced_ns, mut traced_ns) = (0.0, 0.0);
    let (mut steps, mut plans, mut mismatched) = (0, 0, 0);
    // Warm the traced copy's scratch the way the session warmed its own.
    if let Some((task, config, seed)) = sample.first() {
        traced_trial(
            dep,
            *task,
            config,
            *seed,
            &mut scratch,
            &mut Layers::default(),
        );
    }
    for (task, config, seed) in sample {
        let t = Instant::now();
        let reference = session.run(*task, config, *seed);
        untraced_ns += ns(t.elapsed());
        let t = Instant::now();
        let traced = traced_trial(dep, *task, config, *seed, &mut scratch, &mut layers);
        traced_ns += ns(t.elapsed());
        if traced != reference {
            eprintln!("[trace] traced {task:?} mission at seed {seed:#x} diverged from MissionSession::run");
            mismatched += 1;
        }
        steps += reference.steps;
        plans += u64::from(reference.plans);
    }
    MissionTrace {
        layers,
        missions: sample.len() as u64,
        mismatched,
        steps,
        plans,
        untraced_ns,
        traced_ns,
    }
}

/// Per-call time of rendering and predicting on the sample's first
/// observations, for samples whose missions never call the predictor.
fn predictor_probe_us(dep: &Deployment, sample: &[(TaskId, CreateConfig, u64)]) -> f64 {
    let observations: Vec<_> = sample
        .iter()
        .map(|(task, _, seed)| World::for_task(*task, *seed).observe())
        .collect();
    let mut i = 0;
    ns_per_call(KERNEL_BATCH, || {
        let obs = &observations[i % observations.len()];
        i += 1;
        black_box(
            dep.predictor
                .predict(&obs.render_image(), obs.subtask_token),
        );
    }) / 1e3
}

/// ns per MAC of `Accelerator::linear` at the controller's MLP shape, on
/// a clean accelerator and on one built from the sweep's plain 0.84 V
/// controller config; and ns per MAC of the bare INT8 GEMM backend.
fn accel_kernels(dep: &Deployment) -> (f64, f64, f64) {
    let (hidden, mlp) = (
        dep.controller_preset.proxy_hidden,
        dep.controller_preset.proxy_mlp,
    );
    let tokens = 4;
    let macs = (tokens * hidden * mlp) as f64;
    let mut rng = StdRng::seed_from_u64(11);
    let x = Matrix::random_uniform(tokens, hidden, 1.0, &mut rng);
    let w = QuantMatrix::quantize(
        &Matrix::random_uniform(hidden, mlp, 0.5, &mut rng),
        Precision::Int8,
    );
    let params = QuantParams::from_max_abs(1.0, Precision::Int8);
    let ctx = LayerCtx::new(Unit::Controller, Component::Fc1, 0);
    let (_, faulty_config) = &sweep_undervolt::configs()[1];
    let linear_ns = |config: AccelConfig, voltage: f64| {
        let mut accel = Accelerator::new(config, 7);
        accel.set_voltage(voltage);
        let mut out = Matrix::zeros(0, 0);
        ns_per_call(KERNEL_BATCH, || {
            accel.linear_into(&x, &w, params, f32::INFINITY, ctx, &mut out);
            black_box(out.len());
        }) / macs
    };
    let clean = linear_ns(AccelConfig::default(), create_accel::timing::V_NOMINAL);
    let faulty = linear_ns(
        AccelConfig {
            injector: faulty_config
                .controller_error
                .map(|e| e.injector(dep.controller_preset.injection_scale)),
            ..AccelConfig::default()
        },
        match faulty_config.voltage {
            VoltageControl::Fixed(v) => v,
            VoltageControl::Adaptive { .. } => unreachable!("plain undervolting is fixed"),
        },
    );
    let xq = QuantMatrix::quantize(&x, Precision::Int8);
    let backend = GemmBackendKind::from_env().instantiate();
    let mut acc = Vec::new();
    let gemm = ns_per_call(KERNEL_BATCH, || {
        backend.gemm_i8_acc_into(&xq, &w, &mut acc);
        black_box(acc.len());
    }) / macs;
    (clean, faulty, gemm)
}

/// ns per flop of the f32 backend at the planner's MLP training shape.
fn fgemm_ns_per_flop(dep: &Deployment) -> f64 {
    let (hidden, mlp) = (
        dep.planner_preset.proxy_hidden,
        dep.planner_preset.proxy_mlp,
    );
    let rows = create_agents::vocab::MAX_SEQ;
    let mut rng = StdRng::seed_from_u64(12);
    let a = Matrix::random_uniform(rows, hidden, 1.0, &mut rng);
    let b = Matrix::random_uniform(hidden, mlp, 1.0, &mut rng);
    let mut out = Matrix::default();
    let backend = FloatBackendKind::from_env().backend();
    ns_per_call(KERNEL_BATCH, || {
        backend.matmul_into(&a, &b, &mut out);
        black_box(out.len());
    }) / (2 * rows * hidden * mlp) as f64
}

/// Serving probe: p50 ping round trip on an idle connection (µs), and
/// p50 queue wait (µs) and service time (ms) of in-process submissions
/// from a closed loop of [`THREADS`] clients.
fn serve_probe(seed: u64) -> Result<(f64, f64, f64), String> {
    let stack = start_stack(base_seed(seed))?;
    let addr = stack.server.local_addr().to_string();
    let mut net = client(&addr, 0);
    let mut rtt_us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        if !net.ping() {
            return Err("a ping on loopback went unanswered".into());
        }
        rtt_us.push(ns(t.elapsed()) / 1e3);
    }
    net.goodbye();
    let engine = &stack.engine;
    let (samples, _) = closed_loop(
        THREADS,
        Stop::Count(SUBMITS_PER_CLIENT),
        |_| (),
        |_| {
            engine
                .submit(MissionRequest::new(TASK, CreateConfig::golden()))
                .map(|ticket| ticket.wait())
                .map_err(|rejected| rejected.to_string())
        },
        |_| (),
    );
    let served = samples
        .into_iter()
        .map(|s| s.result)
        .collect::<Result<Vec<_>, _>>()?;
    let queue_us: Vec<f64> = served.iter().map(|s| s.queue_ns as f64 / 1e3).collect();
    let service_ms: Vec<f64> = served.iter().map(|s| s.service_ns as f64 / 1e6).collect();
    Ok((median(&rtt_us), median(&queue_us), median(&service_ms)))
}

/// Seconds of one planner epoch plus one controller epoch from a fixed
/// initialization, at `threads` workers.
fn epoch_pair_secs(data: &train_agents::Data, threads: usize) -> f64 {
    let system = &data.system;
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut planner = PlannerModel::new(&system.planner_preset, &mut rng);
    let mut controller = ControllerModel::new(&system.controller_preset, &mut rng);
    let t = Instant::now();
    planner.train_with_threads(
        &system.plan_samples,
        1,
        train_agents::PLANNER_LR,
        Some(OutlierSpec::default()),
        &mut rng,
        threads,
        &mut PlannerTrainScratch::default(),
    );
    controller.train_with_threads(
        &system.bc_samples,
        1,
        train_agents::CONTROLLER_LR,
        &mut rng,
        threads,
        &mut ControllerTrainScratch::default(),
    );
    t.elapsed().as_secs_f64()
}

pub fn run(workload: Workload, seed: u64) -> Result<Report, String> {
    let system = load_system()?;
    let dep = Deployment::new(&system, Precision::Int8);
    drop(system);

    let sample = mission_sample(workload, seed);
    let m = trace_missions(&dep, &sample);
    let steps = m.steps as f64;
    let untraced_us_per_step = m.untraced_ns / 1e3 / steps;
    let attributed_us_per_step = m.layers.attributed_ns() / 1e3 / steps;
    let unattributed = untraced_us_per_step - attributed_us_per_step;
    let overhead = (m.traced_ns - m.untraced_ns) / 1e3 / steps;
    let predictor_us = match m.layers.predictor.us_per_call() {
        Some(us) => us,
        None => predictor_probe_us(&dep, &sample),
    };
    let (linear_clean, linear_faulty, gemm_i8) = accel_kernels(&dep);
    let fgemm = fgemm_ns_per_flop(&dep);
    let (ping_us, queue_us, service_ms) = serve_probe(seed)?;

    let round = sweep_undervolt::run_round(&dep, round_seed(seed, 0), work_dir().join("trace"))?;
    let mean_shard = round.shard_ns.iter().sum::<f64>() / round.shard_ns.len() as f64;
    let max_shard = round.shard_ns.iter().cloned().fold(0.0, f64::max);

    let data = train_agents::load_data()?;
    let epochs = train_agents::run_round(&data, mix(seed, 200));
    let epoch_s = |model: Model| {
        let secs: Vec<f64> = epochs
            .iter()
            .filter(|e: &&Epoch| e.model == model)
            .map(|e| e.secs)
            .collect();
        median(&secs)
    };
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        one.push(epoch_pair_secs(&data, 1));
        many.push(epoch_pair_secs(&data, THREADS));
    }

    let within = unattributed.abs() <= ATTRIBUTION_BOUND * untraced_us_per_step;
    println!(
        "trace: {} missions, {} steps; traced calls explain {:.1}% of the untraced {:.2} us/step \
         ({} the {:.0}% bound); tracing overhead {:+.3} us/step",
        m.missions,
        m.steps,
        100.0 * attributed_us_per_step / untraced_us_per_step,
        untraced_us_per_step,
        if within { "within" } else { "OUTSIDE" },
        100.0 * ATTRIBUTION_BOUND,
        overhead
    );

    if let Err(e) = &round.merged {
        eprintln!("[trace] the sweep round's merge failed: {e}");
    }
    let mut report = Report {
        correct: round.merged.is_ok(),
        attempted: m.missions,
        failed: m.mismatched,
        metrics: Vec::new(),
    };
    let l = &m.layers;
    let per_call = |t: &Timer| t.us_per_call().unwrap_or(0.0);
    report.metric("net.ping_rtt_us_p50", ping_us, "us");
    report.metric("serve.queue_wait_us_p50", queue_us, "us");
    report.metric("serve.service_ms_p50", service_ms, "ms");
    report.metric("mission.us_per_step", untraced_us_per_step, "us");
    report.metric(
        "mission.plans_per_trial",
        m.plans as f64 / m.missions as f64,
        "count",
    );
    report.metric("mission.unattributed_us_per_step", unattributed, "us");
    report.metric("planner.decode_us", per_call(&l.planner), "us");
    report.metric("controller.act_us", per_call(&l.controller), "us");
    report.metric("predictor.predict_us", predictor_us, "us");
    report.metric("train.planner_epoch_s", epoch_s(Model::Planner), "s");
    report.metric("train.controller_epoch_s", epoch_s(Model::Controller), "s");
    report.metric("train.predictor_epoch_s", epoch_s(Model::Predictor), "s");
    report.metric("env.step_us", per_call(&l.step), "us");
    report.metric("env.observe_us", per_call(&l.observe), "us");
    report.metric("accel.macs_per_step", l.macs as f64 / steps, "count");
    report.metric("accel.flips_per_step", l.flips as f64 / steps, "count");
    report.metric(
        "accel.ad_cleared_per_step",
        l.ad_cleared as f64 / steps,
        "count",
    );
    report.metric("accel.linear_ns_per_mac.clean", linear_clean, "ns");
    report.metric("accel.linear_ns_per_mac.faulty", linear_faulty, "ns");
    report.metric("gemm.i8_ns_per_mac", gemm_i8, "ns");
    report.metric("fgemm.f32_ns_per_flop", fgemm, "ns");
    report.metric("par.train_speedup", median(&one) / median(&many), "x");
    report.metric("sweep.merge_ms", round.merge_ns / 1e6, "ms");
    report.metric(
        "sweep.journal_kb",
        round.journal_bytes as f64 / 1024.0,
        "KB",
    );
    report.metric("sweep.shard_imbalance", max_shard / mean_shard, "x");
    report.metric("trace.overhead_us_per_step", overhead, "us");
    Ok(report)
}
