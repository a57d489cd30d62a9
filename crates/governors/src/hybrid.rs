//! Hybrid governor: cached PowerLens plan + live telemetry drift detection.
//!
//! PowerLens is open-loop — it presets frequencies from an offline plan and
//! assumes the modeled board matches the real one. [`HybridGovernor`] keeps
//! the plan as the prior and closes the loop through the telemetry stream:
//! at every block boundary it compares the observed power and busy
//! utilization of the block that just ran against what the platform model
//! predicts for the levels it requested, feeds the ratio through an EWMA,
//! and escalates along a ladder —
//!
//! 1. **plan replay** while observation matches prediction,
//! 2. **nudge** the drifting block's level by one step within the
//!    frequency table (bounded by [`MAX_NUDGE`]). Nudges are
//!    *model-guided and measurement-verified*: a step is only taken when
//!    the platform model predicts the neighboring level lowers the
//!    block's energy (so a drift the frequency axis cannot fix — e.g. a
//!    uniform thermal power shift — triggers no pointless excursion), and
//!    the block's next evaluation window must confirm the energy actually
//!    dropped or the step is reverted and the block pinned,
//! 3. **re-plan** through a caller-supplied hook (typically the plan store
//!    keyed by a drift epoch) when drift exceeds the re-plan threshold,
//!    rate-limited by a token bucket so a fault storm cannot thrash the
//!    planner,
//! 4. catastrophic failures are left to the `sim::Degraded` wrapper, which
//!    composes around this governor exactly as it does around plain plan
//!    replay (plan → nudge → re-plan → BiM).
//!
//! The ladder's thresholds and budgets are the module constants below;
//! every deployment runs the same values.
//!
//! **Differential discipline.** With zero injected drift the governor
//! issues byte-for-byte the same frequency requests as
//! `sim::PlanController`: the detector only *reads* telemetry, predictions
//! are computed with the exact platform calls the engine itself uses (so a
//! clean run's observed/predicted ratio is exactly 1.0), and the
//! wrong-level re-request path only fires when a switch actually failed.
//! `tests/hybrid_differential.rs` pins this across the zoo.

use powerlens_dnn::{Graph, LayerId};
use powerlens_obs as obs;
use powerlens_platform::{FreqLevel, InstrumentationPlan, LayerEnvelope, Platform, Telemetry};
use powerlens_sim::{Controller, FreqRequest};

/// Re-plan callback: given the current graph and the new drift epoch,
/// produce a fresh plan (or `None` to keep the current one). Wired at the
/// ops layer over the plan store so `governors` stays independent of
/// `store`.
pub type ReplanHook<'p> = Box<dyn FnMut(&Graph, u64) -> Option<InstrumentationPlan> + 'p>;

/// Maximum per-block level offset a sequence of nudges may accumulate.
const MAX_NUDGE: i64 = 3;
/// Relative EWMA deviation (|ewma − 1|) that triggers a nudge.
const NUDGE_THRESHOLD: f64 = 0.10;
/// Relative EWMA deviation that triggers a re-plan attempt.
const REPLAN_THRESHOLD: f64 = 0.25;
/// EWMA smoothing factor in `(0, 1]` (1 = no smoothing).
const EWMA_ALPHA: f64 = 0.5;
/// Token-bucket refill rate: re-plans per simulated second.
pub const REPLAN_RATE: f64 = 0.2;
/// Token-bucket capacity: re-plans allowed back-to-back.
pub const REPLAN_BURST: f64 = 1.0;
/// Slack added around the statically-possible busy-utilization band
/// (the PL5xx platform envelopes) before it counts as drift.
const ENVELOPE_MARGIN: f64 = 0.25;

/// Counters describing what the hybrid ladder did during a run. Mirrored
/// into the `hybrid.*` obs counters as they increment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Evaluation windows in which drift was detected (any signal).
    pub drift_detected: u64,
    /// Within-cluster level nudges applied.
    pub nudges: u64,
    /// Re-plans granted by the token bucket.
    pub replans: u64,
    /// Re-plan attempts denied by the token bucket.
    pub replan_throttled: u64,
}

/// Prediction accumulated for the evaluation window in progress.
#[derive(Debug, Clone, Copy, Default)]
struct WindowPrediction {
    energy: f64,
    busy: f64,
    time: f64,
    layers: usize,
}

/// The hybrid governor. See the module docs for the ladder semantics.
pub struct HybridGovernor<'p> {
    platform: &'p Platform,
    batch: usize,
    plan: InstrumentationPlan,
    name: String,
    replan: Option<ReplanHook<'p>>,
    /// Per-block nudge offsets, indexed like `plan.points()`.
    offsets: Vec<i64>,
    /// EWMA of the observed/predicted power ratio (1.0 = on model).
    ewma: f64,
    /// Telemetry sample index where the current evaluation window began.
    window_start: usize,
    /// Block whose layers the current window covers (`plan.points()`
    /// index), if a block boundary has been crossed yet.
    active_block: Option<usize>,
    /// GPU level requested when the active block was entered. Mid-block
    /// re-requests chase *this*, not the live `block_target`: a nudge
    /// landed mid-window must wait for the block's next entry (where the
    /// boundary switch happens anyway, for free) instead of paying an
    /// extra transition stall inside the block.
    entered_target: Option<FreqLevel>,
    /// Expected GPU levels of the layers in the current window (in
    /// practice a single level; kept as a small set for the boot stub).
    expected_levels: Vec<usize>,
    /// First layer of the current window. Windows cover a contiguous
    /// (circular, pass-wrapping) run of `pred.layers` layers starting
    /// here, so the full composition is `(window_first + i) % n` — no
    /// per-step list needed.
    window_first: LayerId,
    /// Whether the current window's prediction was restored whole from
    /// [`Self::window_memo`], making per-step accumulation a no-op.
    window_prefilled: bool,
    /// Per-block memo of the last *completed* window: `(entry level,
    /// first layer, accumulated prediction)`. A block re-entered at the
    /// same level re-runs the same layers at the same operating point, so
    /// the summed prediction replays bit-identically; after the first
    /// pass over a plan the detector's per-step cost collapses to one
    /// branch.
    window_memo: Vec<Option<(FreqLevel, LayerId, WindowPrediction)>>,
    /// Per-layer prediction memo: `(gpu_level, energy, busy·t, t)` of the
    /// last operating point predicted for that layer. The platform model
    /// is pure, so replaying a cached triple is bit-identical to
    /// recomputing it — this turns the detector's per-step cost into a
    /// vector lookup after the first pass over a block.
    pred_cache: Vec<Option<(FreqLevel, f64, f64, f64)>>,
    /// Per-layer statically-possible busy-utilization band (min/max over
    /// every GPU level — the PL5xx envelope). Computed lazily, only when a
    /// window's observed busy strays from its *predicted* busy by more
    /// than the envelope margin: the all-levels sweep is ~`gpu_levels`
    /// platform-model calls, and on a clean run (observed ≡ predicted)
    /// it never happens at all.
    env_cache: Vec<Option<(f64, f64)>>,
    pred: WindowPrediction,
    /// Forces the window to re-anchor on the next layer (task boundary —
    /// telemetry persists across tasks, the window must not).
    rearm: bool,
    /// In-flight nudge experiment: `(block, direction, observed window
    /// energy at the old level)`. Resolved at the block's next window.
    probe: Option<(usize, i64, f64)>,
    /// Blocks whose last nudge failed to lower observed energy; frozen
    /// until a real re-plan installs a fresh plan.
    pinned: Vec<bool>,
    tokens: f64,
    last_refill: f64,
    epoch: u64,
    stats: HybridStats,
}

impl<'p> HybridGovernor<'p> {
    /// Wraps `plan` for execution on `platform` at `batch`.
    pub fn new(platform: &'p Platform, plan: InstrumentationPlan, batch: usize) -> Self {
        let num_points = plan.points().len();
        HybridGovernor {
            platform,
            batch,
            name: format!("hybrid({} blocks)", plan.num_blocks()),
            plan,
            replan: None,
            offsets: vec![0; num_points],
            ewma: 1.0,
            window_start: 0,
            active_block: None,
            entered_target: None,
            expected_levels: Vec::new(),
            window_first: 0,
            window_prefilled: false,
            window_memo: vec![None; num_points],
            pred_cache: Vec::new(),
            env_cache: Vec::new(),
            pred: WindowPrediction::default(),
            rearm: true,
            probe: None,
            pinned: vec![false; num_points],
            tokens: REPLAN_BURST,
            last_refill: 0.0,
            epoch: 0,
            stats: HybridStats::default(),
        }
    }

    /// Installs the re-plan callback (builder style).
    pub fn with_replan_hook(mut self, hook: ReplanHook<'p>) -> Self {
        self.replan = Some(hook);
        self
    }

    /// The ladder counters accumulated so far.
    pub fn stats(&self) -> HybridStats {
        self.stats
    }

    /// Current drift epoch (increments on every granted re-plan).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The plan currently being replayed (the original until a re-plan
    /// hook swaps it).
    pub fn plan(&self) -> &InstrumentationPlan {
        &self.plan
    }

    /// Effective GPU target of block `idx`: the plan level plus the
    /// accumulated nudge offset, clamped to the platform table.
    fn block_target(&self, idx: usize) -> FreqLevel {
        let base = self.plan.points()[idx].gpu_level as i64 + self.offsets[idx];
        let max = self.platform.gpu_table().max_level() as i64;
        base.clamp(0, max) as usize
    }

    /// Installs a fresh plan (re-plan or task-boundary swap), resetting the
    /// per-block learning state that described the old one.
    fn install_plan(&mut self, plan: InstrumentationPlan) {
        self.offsets = vec![0; plan.points().len()];
        self.pinned = vec![false; plan.points().len()];
        self.probe = None;
        self.name = format!("hybrid({} blocks)", plan.num_blocks());
        self.plan = plan;
        self.ewma = 1.0;
        self.active_block = None;
        self.entered_target = None;
        // The memos are keyed per layer (and per block) at the plan's CPU
        // level; a fresh plan may change any of that.
        self.pred_cache.clear();
        self.env_cache.clear();
        self.window_memo = vec![None; self.plan.points().len()];
    }

    /// Nudges `block` by one level in `dir`, bounded by [`MAX_NUDGE`] and the
    /// frequency table. Returns whether the offset actually moved (a move
    /// is always by exactly `dir`, so a probe revert can undo it).
    fn nudge(&mut self, block: usize, dir: i64) -> bool {
        let next = (self.offsets[block] + dir).clamp(-MAX_NUDGE, MAX_NUDGE);
        if next != self.offsets[block] {
            self.offsets[block] = next;
            self.stats.nudges += 1;
            obs::counter("hybrid.nudges", 1);
            true
        } else {
            false
        }
    }

    /// Modeled energy of one pass over block `b`'s layers at `gpu` (the
    /// quantity energy efficiency minimizes; time cancels out of images/J).
    fn block_energy(&self, graph: &Graph, b: usize, gpu: FreqLevel) -> f64 {
        let points = self.plan.points();
        let start = points[b].layer;
        let end = points.get(b + 1).map_or(graph.num_layers(), |p| p.layer);
        let cpu = self.plan.cpu_level();
        (start..end)
            .map(|id| {
                let timing = self
                    .platform
                    .layer_timing(graph.layer(id), self.batch, gpu, cpu);
                self.platform.layer_power(&timing, gpu, cpu) * timing.total
            })
            .sum()
    }

    /// Direction of the neighboring level the model predicts lowers block
    /// `b`'s energy, or `None` when the current target is a local optimum.
    /// The EWMA only ever reports a power *scale*, which cancels out of
    /// the comparison, so the unscaled model ranks neighbors correctly.
    fn model_guided_dir(&self, graph: &Graph, b: usize) -> Option<i64> {
        let cur = self.block_target(b);
        let e_cur = self.block_energy(graph, b, cur);
        let mut best: Option<(i64, f64)> = None;
        if cur > 0 {
            let e = self.block_energy(graph, b, cur - 1);
            if e < e_cur {
                best = Some((-1, e));
            }
        }
        if cur < self.platform.gpu_table().max_level() {
            let e = self.block_energy(graph, b, cur + 1);
            if e < e_cur && best.is_none_or(|(_, b_e)| e < b_e) {
                best = Some((1, e));
            }
        }
        best.map(|(dir, _)| dir)
    }

    /// Token-bucket re-plan attempt. Grants reset the ladder state and call
    /// the hook under a fresh drift epoch; denials only count.
    fn try_replan(&mut self, graph: &Graph, now: f64) {
        let refill = (now - self.last_refill).max(0.0) * REPLAN_RATE;
        self.tokens = (self.tokens + refill).min(REPLAN_BURST);
        self.last_refill = now;
        if self.tokens < 1.0 {
            self.stats.replan_throttled += 1;
            obs::counter("hybrid.replan_throttled", 1);
            return;
        }
        self.tokens -= 1.0;
        self.epoch += 1;
        self.stats.replans += 1;
        obs::counter("hybrid.replans", 1);
        let fresh = self
            .replan
            .as_mut()
            .and_then(|hook| hook(graph, self.epoch));
        match fresh {
            Some(plan) => self.install_plan(plan),
            None => {
                // No planner attached: the "re-plan" degrades to a ladder
                // reset — drop the nudges and re-anchor the EWMA. Pins
                // survive: "the frequency axis cannot fix this" was a
                // *measured* conclusion, and only a genuinely fresh plan
                // invalidates it.
                self.offsets.iter_mut().for_each(|o| *o = 0);
                self.probe = None;
                self.ewma = 1.0;
            }
        }
    }

    /// Closes the evaluation window at a block boundary: compares the
    /// telemetry recorded since [`Self::window_start`] against the
    /// accumulated prediction and escalates if they disagree.
    fn evaluate(&mut self, graph: &Graph, telemetry: &Telemetry) {
        let slice = &telemetry.samples()[self.window_start..];
        let block = self.active_block;
        let (mut obs_e, mut obs_busy, mut obs_t) = (0.0, 0.0, 0.0);
        let (mut matched, mut mismatched) = (0usize, 0usize);
        for s in slice {
            if s.busy_util <= 0.0 {
                continue; // DVFS-transition stall span, not a layer.
            }
            if self.expected_levels.contains(&s.gpu_level) {
                matched += 1;
                obs_e += s.power_w * s.duration;
                obs_busy += s.busy_util * s.duration;
                obs_t += s.duration;
            } else {
                mismatched += 1;
            }
        }
        if self.pred.layers == 0 || self.pred.time <= 0.0 {
            return;
        }
        // The window just completed a full lap over its block: remember the
        // accumulated prediction so the block's next entry at this level
        // skips the per-step accumulation entirely.
        if !self.window_prefilled {
            if let (Some(b), Some(t)) = (block, self.entered_target) {
                self.window_memo[b] = Some((t, self.window_first, self.pred));
            }
        }
        let mut drift = false;
        // Wrong-level samples are deterministic drift: the board ran layers
        // at a level the ladder never requested (failed/capped switches).
        // Exactly zero on clean runs.
        if mismatched > 0 {
            drift = true;
        }
        // The power/busy signals need enough surviving samples to mean
        // anything; heavy sensor dropout skips the window instead of
        // feeding the EWMA a biased layer mix.
        if matched > 0 && obs_t >= 0.5 * self.pred.time {
            let ratio = (obs_e / obs_t) / (self.pred.energy / self.pred.time);
            self.ewma = EWMA_ALPHA * ratio + (1.0 - EWMA_ALPHA) * self.ewma;
            let dev = self.ewma - 1.0;
            // Resolve an open nudge experiment on this block: windows of
            // one block cover the same layers once per batch, so their
            // observed energies compare directly. The nudge stays only if
            // energy measurably dropped; otherwise revert and pin — the
            // frequency axis demonstrably cannot fix this drift, and a
            // uniform power scale (which moves prediction and observation
            // in lockstep) must not walk the block off-plan.
            if let Some((b, dir, prev_e)) = self.probe {
                if block == Some(b) {
                    self.probe = None;
                    if obs_e > 0.98 * prev_e {
                        self.offsets[b] -= dir;
                        self.pinned[b] = true;
                    }
                }
            }
            if dev.abs() > NUDGE_THRESHOLD {
                drift = true;
                if let Some(b) = block {
                    if !self.pinned[b] && self.probe.is_none() {
                        // Only step where the model, which the EWMA says
                        // is off by a *scale* (not reshaped), still
                        // predicts the neighbor lowers block energy.
                        if let Some(dir) = self.model_guided_dir(graph, b) {
                            if self.nudge(b, dir) {
                                self.probe = Some((b, dir, obs_e));
                            }
                        }
                    }
                }
            } else {
                // Power is on model; check the statically-possible busy
                // band (the PL5xx envelopes) widened by the margin.
                // The predicted busy always lies inside the band, so a
                // window whose observation tracks its prediction within
                // the margin cannot be outside the widened band — the
                // all-levels envelope sweep only runs when that cheap
                // gate fails, which a clean run (observed ≡ predicted)
                // never does.
                let busy = obs_busy / obs_t;
                let pred_busy = self.pred.busy / self.pred.time;
                let dir = if (busy - pred_busy).abs() > ENVELOPE_MARGIN {
                    let (band_lo, band_hi) = self.window_band(graph);
                    if busy > band_hi + ENVELOPE_MARGIN {
                        Some(1)
                    } else if busy < band_lo - ENVELOPE_MARGIN {
                        Some(-1)
                    } else {
                        None
                    }
                } else {
                    None
                };
                if let Some(dir) = dir {
                    drift = true;
                    if let Some(b) = block {
                        if !self.pinned[b] {
                            self.nudge(b, dir);
                        }
                    }
                }
            }
            if dev.abs() > REPLAN_THRESHOLD {
                self.try_replan(graph, telemetry.now());
            }
        }
        if drift {
            self.stats.drift_detected += 1;
            obs::counter("hybrid.drift_detected", 1);
        }
    }

    /// Opens a fresh evaluation window starting at the current sample.
    fn reset_window(&mut self, telemetry: &Telemetry) {
        self.window_start = telemetry.samples().len();
        self.expected_levels.clear();
        self.window_prefilled = false;
        self.pred = WindowPrediction::default();
    }

    /// Accumulates the model's prediction for `layer` about to run at the
    /// expected operating point — the same `layer_timing` / `layer_power`
    /// calls the engine makes, so a clean run's ratio is exactly 1.0.
    /// Memoized per layer: blocks re-run the same layers at the same level
    /// once per batch pass, and the platform model is pure, so a cache hit
    /// replays bit-identical floats.
    fn predict_layer(&mut self, graph: &Graph, layer: LayerId, gpu: FreqLevel) {
        if self.window_prefilled {
            // Every step of a block window predicts at the level requested
            // when the block was entered (`before_layer` chases
            // `entered_target` mid-block), which is exactly the memo key
            // the prefill below matched.
            debug_assert_eq!(Some(gpu), self.entered_target);
            return;
        }
        if self.pred.layers == 0 {
            self.window_first = layer;
            if let Some(b) = self.active_block {
                if let Some((g, first, pred)) = self.window_memo[b] {
                    if g == gpu && first == layer {
                        self.pred = pred;
                        self.window_prefilled = true;
                        self.expected_levels.push(gpu);
                        return;
                    }
                }
            }
        }
        if self.pred_cache.len() != graph.num_layers() {
            self.pred_cache = vec![None; graph.num_layers()];
        }
        let (energy, busy, time) = match self.pred_cache[layer] {
            Some((g, e, b, t)) if g == gpu => (e, b, t),
            _ => {
                let l = graph.layer(layer);
                let cpu = self.plan.cpu_level();
                let timing = self.platform.layer_timing(l, self.batch, gpu, cpu);
                let power = self.platform.layer_power(&timing, gpu, cpu);
                let v = (
                    power * timing.total,
                    timing.busy_util * timing.total,
                    timing.total,
                );
                self.pred_cache[layer] = Some((gpu, v.0, v.1, v.2));
                v
            }
        };
        self.pred.energy += energy;
        self.pred.busy += busy;
        self.pred.time += time;
        self.pred.layers += 1;
        if !self.expected_levels.contains(&gpu) {
            self.expected_levels.push(gpu);
        }
    }

    /// Busy-utilization band of the current window: the union of its
    /// layers' statically-possible envelopes. Cached per layer; only
    /// reached when the window's observed busy already strayed from its
    /// prediction, so the all-levels sweep never runs on a clean trace.
    fn window_band(&mut self, graph: &Graph) -> (f64, f64) {
        let n = graph.num_layers();
        if self.env_cache.len() != n {
            self.env_cache = vec![None; n];
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for i in 0..self.pred.layers {
            let layer = (self.window_first + i) % n;
            let band = match self.env_cache[layer] {
                Some(b) => b,
                None => {
                    let env = self.envelope(graph, layer);
                    let b = (env.busy_util.0, env.busy_util.1);
                    self.env_cache[layer] = Some(b);
                    b
                }
            };
            lo = lo.min(band.0);
            hi = hi.max(band.1);
        }
        (lo, hi)
    }

    /// Statically-possible envelope of one layer at the plan's CPU level.
    fn envelope(&self, graph: &Graph, layer: LayerId) -> LayerEnvelope {
        // Envelopes are per-layer independent, so computing one layer at a
        // time is exact.
        self.platform
            .graph_envelopes(
                std::slice::from_ref(graph.layer(layer)),
                self.batch,
                self.plan.cpu_level(),
            )
            .remove(0)
    }
}

impl Controller for HybridGovernor<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_task_start(&mut self, graph: &Graph) {
        // Telemetry persists across tasks; the evaluation window must not.
        self.rearm = true;
        self.active_block = None;
        self.entered_target = None;
        // The memos are keyed by layer index within one graph; a new task
        // may run a different graph of the same size.
        self.pred_cache.clear();
        self.env_cache.clear();
        self.window_memo.iter_mut().for_each(|m| *m = None);
        if let Some(hook) = self.replan.as_mut() {
            // Task-boundary plan swap (mixed multi-tenant flows): a cache
            // lookup under the current epoch, not a drift re-plan — the
            // token bucket is not consulted.
            if let Some(plan) = hook(graph, self.epoch) {
                if plan != self.plan {
                    self.install_plan(plan);
                }
            }
        }
    }

    fn before_layer(
        &mut self,
        graph: &Graph,
        layer: LayerId,
        telemetry: &Telemetry,
        gpu_level: FreqLevel,
        cpu_level: FreqLevel,
    ) -> FreqRequest {
        if self.rearm {
            self.rearm = false;
            self.reset_window(telemetry);
        }
        let point = self.plan.points().iter().position(|p| p.layer == layer);
        if let Some(idx) = point {
            // Block boundary: judge the block that just finished, then open
            // the window for the one about to run.
            self.evaluate(graph, telemetry);
            self.reset_window(telemetry);
            self.active_block = Some(idx);
        }
        let mut req = FreqRequest::none();
        if cpu_level != self.plan.cpu_level() {
            req.cpu = Some(self.plan.cpu_level());
        }
        let target = match (point, self.active_block) {
            (Some(idx), _) => {
                // At a plan point the request mirrors PlanController: issue
                // the (possibly nudged) preset when it differs. The level
                // asked for here is what mid-block recovery chases.
                let t = self.block_target(idx);
                self.entered_target = Some(t);
                if t != gpu_level {
                    req.gpu = Some(t);
                }
                Some(t)
            }
            (None, Some(_)) => {
                // Mid-block: a mismatch against the level requested at the
                // block's entry means an earlier switch failed or was
                // clamped; keep re-requesting so one failed boundary
                // switch cannot strand the whole block. Chasing the
                // *entry* target (not the live, possibly re-nudged one)
                // keeps nudges free: they land at the next boundary
                // switch instead of paying an extra mid-block stall.
                // Never fires on clean runs (the switch landed).
                let t = self.entered_target.unwrap_or(gpu_level);
                if t != gpu_level {
                    req.gpu = Some(t);
                }
                Some(t)
            }
            _ => None,
        };
        self.predict_layer(graph, layer, target.unwrap_or(gpu_level));
        req
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_dnn::zoo;
    use powerlens_platform::InstrumentationPoint;
    use powerlens_sim::{Engine, PlanController};

    fn agx() -> Platform {
        Platform::agx()
    }

    fn two_block_plan(p: &Platform, g: &Graph) -> InstrumentationPlan {
        InstrumentationPlan::new(
            vec![
                InstrumentationPoint {
                    layer: 0,
                    gpu_level: 9,
                },
                InstrumentationPoint {
                    layer: g.num_layers() / 2,
                    gpu_level: 5,
                },
            ],
            p.cpu_table().max_level(),
        )
    }

    #[test]
    fn clean_run_with_detector_on_never_drifts() {
        let p = agx();
        let g = zoo::resnet34();
        let plan = two_block_plan(&p, &g);
        let e = Engine::new(&p).with_batch(8);
        let mut plain = PlanController::new(plan.clone());
        let base = e.run(&g, &mut plain, 16);
        let mut hybrid = HybridGovernor::new(&p, plan, 8);
        let r = e.run(&g, &mut hybrid, 16);
        assert_eq!(base.total_energy.to_bits(), r.total_energy.to_bits());
        assert_eq!(base.total_time.to_bits(), r.total_time.to_bits());
        let s = hybrid.stats();
        assert_eq!(s.drift_detected, 0);
        assert_eq!(s.nudges, 0);
        assert_eq!(s.replans, 0);
        assert!((hybrid.ewma - 1.0).abs() == 0.0, "clean ratio is exactly 1");
    }

    fn one_block_plan(p: &Platform, gpu_level: FreqLevel) -> InstrumentationPlan {
        InstrumentationPlan::new(
            vec![InstrumentationPoint {
                layer: 0,
                gpu_level,
            }],
            p.cpu_table().max_level(),
        )
    }

    #[test]
    fn nudge_targets_stay_inside_the_table() {
        let p = agx();
        let top = p.gpu_table().max_level();
        let mut h = HybridGovernor::new(&p, one_block_plan(&p, top), 1);
        for _ in 0..200 {
            h.nudge(0, 1);
        }
        assert_eq!(h.block_target(0), top, "clamped at the table top");
        let mut h = HybridGovernor::new(&p, one_block_plan(&p, 1), 1);
        for _ in 0..500 {
            h.nudge(0, -1);
        }
        assert_eq!(h.block_target(0), 0, "clamped at the table floor");
        assert_eq!(h.offsets[0], -MAX_NUDGE, "offset bounded by MAX_NUDGE");
    }

    #[test]
    fn token_bucket_bounds_replans() {
        let p = agx();
        let g = zoo::alexnet();
        let mut h = HybridGovernor::new(&p, two_block_plan(&p, &g), 1);
        // Ten attempts at t=0: only the burst (1) may pass.
        for _ in 0..10 {
            h.try_replan(&g, 0.0);
        }
        assert_eq!(h.stats().replans, 1);
        assert_eq!(h.stats().replan_throttled, 9);
        // Ten simulated seconds refill at 0.2/s, capped by the burst of 1.
        for _ in 0..10 {
            h.try_replan(&g, 10.0);
        }
        assert_eq!(h.stats().replans, 2);
        assert_eq!(h.epoch(), 2, "every grant advances the drift epoch");
    }

    #[test]
    fn replan_hook_receives_the_epoch_and_swaps_the_plan() {
        let p = agx();
        let g = zoo::alexnet();
        let plan = two_block_plan(&p, &g);
        let swapped = InstrumentationPlan::new(
            vec![InstrumentationPoint {
                layer: 0,
                gpu_level: 3,
            }],
            p.cpu_table().max_level(),
        );
        let mut seen = Vec::new();
        {
            let hook_plan = swapped.clone();
            let mut h = HybridGovernor::new(&p, plan, 1).with_replan_hook(Box::new(|_, epoch| {
                seen.push(epoch);
                Some(hook_plan.clone())
            }));
            h.try_replan(&g, 0.0);
            assert_eq!(h.plan(), &swapped);
            assert_eq!(h.offsets.len(), 1, "offsets resized to the new plan");
        }
        assert_eq!(seen, vec![1]);
    }
}
