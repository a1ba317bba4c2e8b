//! The training loop: backbone × loss × sampler × optimizer × evaluation.

use crate::config::{SamplingConfig, TrainConfig};
use crate::engine::{Engine, Job, WorkerPool};
use bsl_data::Dataset;
use bsl_eval::{evaluate_artifact, EvalReport};
use bsl_linalg::kernels::{axpy, cosine_backward_into, dot, normalize_into, sq_dist};
use bsl_linalg::simd::{cosine_backward_block, normalize_gather_into, scores_block};
use bsl_linalg::Matrix;
use bsl_losses::{build as build_loss, RankingLoss, ScoreBatch};
use bsl_models::{
    build as build_backbone, Backbone, EvalScore, GradBuffer, Hyper, ModelArtifact, ShardGrad,
    TrainScore,
};
use bsl_sampling::{
    BatchIter, NegativeSampler, NoisySampler, PopularitySampler, TrainBatch, UniformSampler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The cutoffs every training run evaluates (Fig 7's @5/@10/@15 plus the
/// paper's headline @20).
pub const EVAL_KS: [usize; 4] = [5, 10, 15, 20];

/// Loss statistics of one epoch.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean main-loss value over batches.
    pub loss: f64,
    /// Mean auxiliary (self-supervised) loss over batches.
    pub aux_loss: f64,
}

/// Result of a training run.
pub struct TrainOutcome {
    /// Final user embeddings at the best evaluation (raw, un-prepared —
    /// experiment harnesses inspect these; retrieval goes through
    /// [`artifact`](TrainOutcome::artifact)).
    pub user_emb: Matrix,
    /// Final item embeddings at the best evaluation.
    pub item_emb: Matrix,
    /// The backbone's test-time score function.
    pub eval_score: EvalScore,
    /// The frozen, servable export of the best epoch's embeddings:
    /// normalization / distance augmentation already applied, so repeated
    /// evaluations and serving never repay preparation. Save it with
    /// [`ModelArtifact::save`], serve it with `bsl_serve::ServeState`.
    pub artifact: ModelArtifact,
    /// The best evaluation report (by NDCG@20).
    pub best: EvalReport,
    /// Epoch (0-based) of the best evaluation.
    pub best_epoch: usize,
    /// Per-epoch loss statistics.
    pub history: Vec<EpochStats>,
    /// `(epoch, NDCG@20)` at each evaluation point.
    pub eval_history: Vec<(usize, f64)>,
}

impl TrainOutcome {
    /// Re-evaluates the stored best model on `ds` at the cutoffs `ks` —
    /// used by experiments that need metrics on a different split or at
    /// different cutoffs than the training loop recorded. Ranks through
    /// the pre-prepared [`artifact`](TrainOutcome::artifact), so repeated
    /// calls pay no per-call normalization.
    pub fn evaluate_on(&self, ds: &Dataset, ks: &[usize]) -> EvalReport {
        evaluate_artifact(ds, &self.artifact, ks)
    }
}

/// Trains a backbone with a ranking loss on a dataset.
pub struct Trainer {
    cfg: TrainConfig,
    /// Persistent execution engine (compute worker pool + sampling shard
    /// workers), created lazily on the first multi-threaded fit and then
    /// reused for every batch, epoch, and subsequent fit of this trainer
    /// — no per-batch or per-epoch thread spawning.
    engine: OnceLock<Engine>,
}

/// Reusable step scratch: unit vectors, norms, scores and the in-batch
/// similarity matrix, all as flat row-major buffers. Sizing is
/// grow-only (every consumer slices the exact `[..b*…]` extent it needs),
/// so after the first full-sized batch no step re-zeroes or reallocates —
/// trailing partial batches and later epochs reuse the same storage.
///
/// `neg_hat`/`neg_norms` cache every negative's unit vector for the whole
/// batch (`B·m·d` floats) so the gradient pass reuses them instead of
/// re-normalizing — the blocked kernels then see contiguous item blocks.
/// They are only sized on the cosine scoring path; distance-scored
/// backbones (CML) never touch them.
#[derive(Default)]
struct StepScratch {
    /// Unit user vectors, `B × d` flat.
    user_hat: Vec<f32>,
    user_norm: Vec<f32>,
    /// Unit positive-item vectors, `B × d` flat.
    pos_hat: Vec<f32>,
    pos_norm: Vec<f32>,
    pos_scores: Vec<f32>,
    neg_scores: Vec<f32>,
    /// Unit negative-item vectors, `B × m × d` flat (sampled path only).
    neg_hat: Vec<f32>,
    neg_norms: Vec<f32>,
    /// `B × B` cosine similarities (in-batch path only).
    sims: Vec<f32>,
}

/// Grows `v` to at least `n` elements (never shrinks).
fn grow(v: &mut Vec<f32>, n: usize) {
    if v.len() < n {
        v.resize(n, 0.0);
    }
}

impl StepScratch {
    fn ensure_sampled(&mut self, b: usize, m: usize, d: usize, cache_negs: bool) {
        grow(&mut self.user_hat, b * d);
        grow(&mut self.user_norm, b);
        grow(&mut self.pos_hat, b * d);
        grow(&mut self.pos_norm, b);
        grow(&mut self.pos_scores, b);
        grow(&mut self.neg_scores, b * m);
        if cache_negs {
            grow(&mut self.neg_hat, b * m * d);
            grow(&mut self.neg_norms, b * m);
        }
    }

    fn ensure_in_batch(&mut self, b: usize, d: usize) {
        grow(&mut self.user_hat, b * d);
        grow(&mut self.user_norm, b);
        grow(&mut self.pos_hat, b * d);
        grow(&mut self.pos_norm, b);
        grow(&mut self.pos_scores, b);
        grow(&mut self.neg_scores, b * (b - 1));
        grow(&mut self.sims, b * b);
    }
}

/// Splits the first `rows` rows (of `widths[k]` floats) off every buffer
/// in `parts`, leaving the rest in place.
fn split_rows<'a, const N: usize>(
    parts: &mut [&'a mut [f32]; N],
    widths: [usize; N],
    rows: usize,
) -> [&'a mut [f32]; N] {
    std::array::from_fn(|k| {
        let (head, tail) = std::mem::take(&mut parts[k]).split_at_mut(rows * widths[k]);
        parts[k] = tail;
        head
    })
}

/// Runs `body(rows, parts, shard)` over contiguous row chunks of `0..b`,
/// chunk `k` with shard `k`; `parts` holds the chunk's rows of each
/// output buffer (rows of `widths[k]` floats). With no pool the single
/// shard runs inline over the whole batch — no job, no allocation; with
/// one, every chunk is a [`WorkerPool`] job. The chunking depends only on
/// `b` and the shard count, so results are deterministic per
/// `(seed, threads)`.
fn run_sharded<const N: usize, F>(
    pool: Option<&WorkerPool>,
    shards: &mut [ShardGrad],
    b: usize,
    mut parts: [&mut [f32]; N],
    widths: [usize; N],
    body: F,
) where
    F: Fn(Range<usize>, [&mut [f32]; N], &mut ShardGrad) + Sync,
{
    let Some(pool) = pool else {
        return body(0..b, parts, &mut shards[0]);
    };
    let chunk = b.div_ceil(shards.len()).max(1);
    let body = &body;
    let mut jobs: Vec<Job> = Vec::with_capacity(shards.len());
    for (start, shard) in (0..b).step_by(chunk).zip(shards.iter_mut()) {
        let rows = chunk.min(b - start);
        let head = split_rows(&mut parts, widths, rows);
        jobs.push(Box::new(move || body(start..start + rows, head, shard)));
    }
    pool.run(jobs);
}

/// What every step of one fit reuses: the compute pool (`None` when
/// serial), one batch-footprint gradient shard per worker (one in total
/// when serial), the merged buffer the optimizer reads, and the scratch.
struct StepState<'p> {
    pool: Option<&'p WorkerPool>,
    shards: Vec<ShardGrad>,
    grads: GradBuffer,
    scratch: StepScratch,
    hyper: Hyper,
}

impl Trainer {
    /// Creates a trainer for `cfg`. Worker threads (for
    /// `cfg.threads != 1`) are spawned lazily on the first fit and reused
    /// by every later fit of this trainer.
    pub fn new(cfg: TrainConfig) -> Self {
        Self { cfg, engine: OnceLock::new() }
    }

    /// The configuration this trainer runs.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Builds the configured backbone and trains it on `ds`.
    pub fn fit(&self, ds: &Arc<Dataset>) -> TrainOutcome {
        let mut backbone = build_backbone(self.cfg.backbone, ds, self.cfg.dim, self.cfg.seed);
        self.fit_backbone(ds, backbone.as_mut())
    }

    /// Trains a caller-provided backbone (for custom models or warm
    /// starts).
    pub fn fit_backbone(&self, ds: &Arc<Dataset>, backbone: &mut dyn Backbone) -> TrainOutcome {
        let cfg = &self.cfg;
        assert!(cfg.epochs > 0, "epochs must be positive");
        assert!(cfg.eval_every > 0, "eval_every must be positive");
        let loss = build_loss(cfg.loss);
        let sampler: Arc<dyn NegativeSampler> = match cfg.sampling {
            SamplingConfig::Uniform | SamplingConfig::InBatch => {
                Arc::new(UniformSampler::new(ds.clone()))
            }
            SamplingConfig::Popularity { alpha } => {
                Arc::new(PopularitySampler::new(ds.clone(), alpha))
            }
            SamplingConfig::Noisy { r_noise } => Arc::new(NoisySampler::new(ds.clone(), r_noise)),
        };
        let in_batch = cfg.sampling == SamplingConfig::InBatch;
        // In-batch rows carry B−1 negatives each; the sampler's draws are
        // discarded, so sample the minimum.
        let m = if in_batch { 1 } else { cfg.negatives };

        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xB5F0_0B5F);
        // `threads == 1` is the one-shard case of the same step, run
        // inline, so the persistent engine only exists when threads > 1.
        let n_threads = cfg.resolved_threads();
        let engine: Option<&Engine> =
            (n_threads > 1).then(|| self.engine.get_or_init(|| Engine::new(n_threads)));
        let mut state = StepState {
            pool: engine.map(Engine::pool),
            // Shards are sized to the batch footprint (grow-only sparse
            // row maps), never to the catalogue.
            shards: (0..n_threads).map(|_| ShardGrad::new(backbone.out_dim())).collect(),
            grads: GradBuffer::new(ds.n_users, ds.n_items, backbone.out_dim()),
            scratch: StepScratch::default(),
            hyper: Hyper { lr: cfg.lr, l2: cfg.l2 },
        };

        let mut history = Vec::new();
        let mut eval_history = Vec::new();
        let mut best_ndcg = f64::NEG_INFINITY;
        let mut best: Option<(EvalReport, Matrix, Matrix, usize, ModelArtifact)> = None;
        let mut stale = 0usize;

        'training: for epoch in 0..cfg.epochs {
            let mut loss_sum = 0.0f64;
            let mut aux_sum = 0.0f64;
            let mut n_batches = 0usize;
            let epoch_seed = cfg.seed.wrapping_add(1 + epoch as u64);
            // Persistent sampling shards (threads > 1) overlap negative
            // drawing with the gradient work below without spawning any
            // thread; threads == 1 is the serial BatchIter.
            let batches: Box<dyn Iterator<Item = TrainBatch> + '_> = match engine {
                Some(e) => {
                    Box::new(e.samplers().start_epoch(ds, &sampler, cfg.batch_size, m, epoch_seed))
                }
                None => {
                    Box::new(BatchIter::new(ds, sampler.as_ref(), cfg.batch_size, m, epoch_seed))
                }
            };
            for batch in batches {
                if in_batch && batch.len() < 2 {
                    continue; // a single row has no in-batch negatives
                }
                backbone.forward(&mut rng);
                let (l, aux) = if in_batch {
                    state.step_in_batch(backbone, loss.as_ref(), &batch, &mut rng)
                } else {
                    state.step_sampled(backbone, loss.as_ref(), &batch, &mut rng)
                };
                loss_sum += l;
                aux_sum += aux;
                n_batches += 1;
            }
            let denom = n_batches.max(1) as f64;
            history.push(EpochStats { epoch, loss: loss_sum / denom, aux_loss: aux_sum / denom });

            if (epoch + 1) % cfg.eval_every == 0 || epoch + 1 == cfg.epochs {
                backbone.forward(&mut rng);
                // Freeze the epoch's embeddings and rank through the
                // artifact — the same prepared tables serving would use.
                let artifact = backbone.export();
                let report = evaluate_artifact(ds, &artifact, &EVAL_KS);
                let ndcg = report.ndcg(20);
                eval_history.push((epoch, ndcg));
                if ndcg > best_ndcg {
                    best_ndcg = ndcg;
                    best = Some((
                        report,
                        backbone.user_factors().clone(),
                        backbone.item_factors().clone(),
                        epoch,
                        artifact,
                    ));
                    stale = 0;
                } else {
                    stale += 1;
                    if cfg.patience > 0 && stale >= cfg.patience {
                        break 'training;
                    }
                }
            }
        }

        let (best, user_emb, item_emb, best_epoch, artifact) =
            best.expect("at least one evaluation ran (final epoch always evaluates)");
        TrainOutcome {
            user_emb,
            item_emb,
            eval_score: backbone.eval_score(),
            artifact,
            best,
            best_epoch,
            history,
            eval_history,
        }
    }
}

impl StepState<'_> {
    /// One optimizer step with explicitly-sampled negatives.
    ///
    /// Pass 1 normalizes each row's negatives into a contiguous `m × d`
    /// block (cached in the scratch for pass 2, so every negative is
    /// normalized exactly once) and scores it with one blocked matvec;
    /// pass 2 chains the user-side gradient through one
    /// [`cosine_backward_block`] per row. Both passes run per row chunk
    /// ([`run_sharded`]); pass 2 accumulates into the chunk's shard.
    fn step_sampled(
        &mut self,
        backbone: &mut dyn Backbone,
        loss: &dyn RankingLoss,
        batch: &TrainBatch,
        rng: &mut StdRng,
    ) -> (f64, f64) {
        let b = batch.len();
        let m = batch.m;
        let d = backbone.out_dim();
        let score_kind = backbone.train_score();
        let users = backbone.user_factors();
        let items = backbone.item_factors();
        let cache_negs = score_kind == TrainScore::Cosine;
        // The distance-scored path carves empty negative-cache slices; it
        // never reads them.
        let mc = if cache_negs { m } else { 0 };
        let s = &mut self.scratch;
        s.ensure_sampled(b, m, d, cache_negs);

        // Pass 1 — scores.
        run_sharded(
            self.pool,
            &mut self.shards,
            b,
            [
                &mut s.user_hat[..b * d],
                &mut s.user_norm[..b],
                &mut s.pos_hat[..b * d],
                &mut s.pos_norm[..b],
                &mut s.pos_scores[..b],
                &mut s.neg_scores[..b * m],
                &mut s.neg_hat[..b * mc * d],
                &mut s.neg_norms[..b * mc],
            ],
            [d, 1, d, 1, 1, m, mc * d, mc],
            |rows, [uh, un, ph, pn, ps, ns, nh, nn], _| {
                for (li, row) in rows.enumerate() {
                    let u = batch.users[row] as usize;
                    let i = batch.pos[row] as usize;
                    match score_kind {
                        TrainScore::Cosine => {
                            let uhat = &mut uh[li * d..(li + 1) * d];
                            un[li] = normalize_into(users.row(u), uhat);
                            pn[li] = normalize_into(items.row(i), &mut ph[li * d..(li + 1) * d]);
                            ps[li] = dot(uhat, &ph[li * d..(li + 1) * d]);
                            normalize_gather_into(
                                items,
                                batch.negs_of(row),
                                &mut nh[li * m * d..(li + 1) * m * d],
                                &mut nn[li * m..(li + 1) * m],
                            );
                            scores_block(
                                uhat,
                                &nh[li * m * d..(li + 1) * m * d],
                                &mut ns[li * m..(li + 1) * m],
                            );
                        }
                        TrainScore::NegSqDist => {
                            ps[li] = -sq_dist(users.row(u), items.row(i));
                            for (jj, &j) in batch.negs_of(row).iter().enumerate() {
                                ns[li * m + jj] = -sq_dist(users.row(u), items.row(j as usize));
                            }
                        }
                    }
                }
            },
        );

        let out = loss.compute(&ScoreBatch::new(&s.pos_scores[..b], &s.neg_scores[..b * m], m));

        // Pass 2 — chain score gradients into the shard's embedding
        // gradients; negative unit vectors come from the pass-1 cache.
        let s = &self.scratch;
        run_sharded(self.pool, &mut self.shards, b, [], [], |rows, [], gbuf| {
            for row in rows {
                let u = batch.users[row];
                let i = batch.pos[row];
                match score_kind {
                    TrainScore::Cosine => {
                        let uhat = &s.user_hat[row * d..(row + 1) * d];
                        let ihat = &s.pos_hat[row * d..(row + 1) * d];
                        let g = out.grad_pos[row];
                        let sc = s.pos_scores[row];
                        let un = s.user_norm[row];
                        cosine_backward_into(g, sc, uhat, ihat, un, gbuf.user_row_mut(u));
                        let pn = s.pos_norm[row];
                        cosine_backward_into(g, sc, ihat, uhat, pn, gbuf.item_row_mut(i));
                        let gs = &out.grad_neg[row * m..(row + 1) * m];
                        let ss = &s.neg_scores[row * m..(row + 1) * m];
                        let nh = &s.neg_hat[row * m * d..(row + 1) * m * d];
                        let nn = &s.neg_norms[row * m..(row + 1) * m];
                        cosine_backward_block(gs, ss, uhat, un, nh, gbuf.user_row_mut(u));
                        for (jj, &j) in batch.negs_of(row).iter().enumerate() {
                            if gs[jj] == 0.0 {
                                continue;
                            }
                            let nhat = &nh[jj * d..(jj + 1) * d];
                            cosine_backward_into(
                                gs[jj],
                                ss[jj],
                                nhat,
                                uhat,
                                nn[jj],
                                gbuf.item_row_mut(j),
                            );
                        }
                    }
                    TrainScore::NegSqDist => {
                        // s = −||u−i||² ⇒ ∂s/∂u = 2(i−u), ∂s/∂i = 2(u−i).
                        let urow = users.row(u as usize);
                        let apply = |g: f32, item: u32, gbuf: &mut ShardGrad| {
                            if g == 0.0 {
                                return;
                            }
                            let irow = items.row(item as usize);
                            let gu = gbuf.user_row_mut(u);
                            axpy(2.0 * g, irow, gu);
                            axpy(-2.0 * g, urow, gu);
                            let gi = gbuf.item_row_mut(item);
                            axpy(2.0 * g, urow, gi);
                            axpy(-2.0 * g, irow, gi);
                        };
                        apply(out.grad_pos[row], i, gbuf);
                        for (jj, &j) in batch.negs_of(row).iter().enumerate() {
                            apply(out.grad_neg[row * m + jj], j, gbuf);
                        }
                    }
                }
            }
        });
        (out.loss, self.merge_and_step(backbone, batch, rng))
    }

    /// One optimizer step with in-batch shared negatives: row `b`'s
    /// negatives are the other rows' positive items (paper Table V).
    ///
    /// Normalization is one blocked gather per side and chunk, every
    /// similarity row is one blocked matvec against the whole item block,
    /// and the user-side backward runs [`cosine_backward_block`] on the
    /// two contiguous item-block halves on either side of the diagonal.
    /// A row's negatives are other rows' positives, so chunks write
    /// overlapping item rows — each into its own shard.
    fn step_in_batch(
        &mut self,
        backbone: &mut dyn Backbone,
        loss: &dyn RankingLoss,
        batch: &TrainBatch,
        rng: &mut StdRng,
    ) -> (f64, f64) {
        let b = batch.len();
        let m = b - 1;
        let d = backbone.out_dim();
        debug_assert_eq!(backbone.train_score(), TrainScore::Cosine, "in-batch assumes cosine");
        let users = backbone.user_factors();
        let items = backbone.item_factors();
        let s = &mut self.scratch;
        s.ensure_in_batch(b, d);

        // Normalize each row's user and positive item once
        // (`pos_hat`/`pos_norm` hold the item side).
        run_sharded(
            self.pool,
            &mut self.shards,
            b,
            [
                &mut s.user_hat[..b * d],
                &mut s.user_norm[..b],
                &mut s.pos_hat[..b * d],
                &mut s.pos_norm[..b],
            ],
            [d, 1, d, 1],
            |rows, [uh, un, ih, inorm], _| {
                normalize_gather_into(users, &batch.users[rows.start..rows.end], uh, un);
                normalize_gather_into(items, &batch.pos[rows], ih, inorm);
            },
        );
        // Full similarity matrix: S[a][c] = cos(user_a, item_c).
        let (user_hat, item_hat) = (&s.user_hat, &s.pos_hat[..b * d]);
        run_sharded(
            self.pool,
            &mut self.shards,
            b,
            [&mut s.sims[..b * b]],
            [b],
            |rows, [sr], _| {
                for (li, a) in rows.enumerate() {
                    scores_block(
                        &user_hat[a * d..(a + 1) * d],
                        item_hat,
                        &mut sr[li * b..(li + 1) * b],
                    );
                }
            },
        );
        for a in 0..b {
            s.pos_scores[a] = s.sims[a * b + a];
            let mut jj = 0;
            for c in 0..b {
                if c != a {
                    s.neg_scores[a * m + jj] = s.sims[a * b + c];
                    jj += 1;
                }
            }
        }
        let out = loss.compute(&ScoreBatch::new(&s.pos_scores[..b], &s.neg_scores[..b * m], m));

        // Chain gradients back; the column item of slot (a, jj) is row c.
        let s = &self.scratch;
        run_sharded(self.pool, &mut self.shards, b, [], [], |rows, [], gbuf| {
            for a in rows {
                let ua = &s.user_hat[a * d..(a + 1) * d];
                let ia = &s.pos_hat[a * d..(a + 1) * d];
                let g = out.grad_pos[a];
                let sc = s.pos_scores[a];
                let un = s.user_norm[a];
                cosine_backward_into(g, sc, ua, ia, un, gbuf.user_row_mut(batch.users[a]));
                cosine_backward_into(g, sc, ia, ua, s.pos_norm[a], gbuf.item_row_mut(batch.pos[a]));
                // Slots 0..a map to item rows 0..a and slots a.. to rows
                // a+1..b — two contiguous halves around the diagonal.
                let gs = &out.grad_neg[a * m..(a + 1) * m];
                let ss = &s.neg_scores[a * m..(a + 1) * m];
                let (below, above) = (&s.pos_hat[..a * d], &s.pos_hat[(a + 1) * d..b * d]);
                let gu = gbuf.user_row_mut(batch.users[a]);
                cosine_backward_block(&gs[..a], &ss[..a], ua, un, below, gu);
                cosine_backward_block(&gs[a..], &ss[a..], ua, un, above, gu);
                for (jj, c) in (0..b).filter(|&c| c != a).enumerate() {
                    if gs[jj] == 0.0 {
                        continue;
                    }
                    let chat = &s.pos_hat[c * d..(c + 1) * d];
                    let gi = gbuf.item_row_mut(batch.pos[c]);
                    cosine_backward_into(gs[jj], ss[jj], chat, ua, s.pos_norm[c], gi);
                }
            }
        });
        (out.loss, self.merge_and_step(backbone, batch, rng))
    }

    /// Merges the shards into the dense buffer in shard order, runs the
    /// backbone's optimizer step on it and clears both; returns the
    /// backbone's auxiliary loss.
    fn merge_and_step(
        &mut self,
        backbone: &mut dyn Backbone,
        batch: &TrainBatch,
        rng: &mut StdRng,
    ) -> f64 {
        for shard in &mut self.shards {
            shard.merge_into(&mut self.grads);
            shard.clear();
        }
        let aux = backbone.step(&self.grads, &batch.users, &batch.pos, self.hyper, rng);
        self.grads.clear();
        aux
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_data::synth::{generate, SynthConfig};
    use bsl_losses::LossConfig;
    use bsl_models::BackboneConfig;

    fn tiny() -> Arc<Dataset> {
        Arc::new(generate(&SynthConfig::tiny(1)))
    }

    fn random_baseline(ds: &Arc<Dataset>) -> f64 {
        // NDCG of untrained Xavier embeddings.
        let mut rng = StdRng::seed_from_u64(999);
        let u = Matrix::xavier_uniform(ds.n_users, 16, &mut rng);
        let i = Matrix::xavier_uniform(ds.n_items, 16, &mut rng);
        bsl_eval::evaluate(ds, &u, &i, EvalScore::Cosine, &[20]).ndcg(20)
    }

    #[test]
    fn mf_sl_learns_signal() {
        let ds = tiny();
        let cfg = TrainConfig { epochs: 12, ..TrainConfig::smoke() };
        let out = Trainer::new(cfg).fit(&ds);
        let chance = random_baseline(&ds);
        assert!(
            out.best.ndcg(20) > chance * 2.0,
            "trained NDCG {:.4} vs random {:.4}",
            out.best.ndcg(20),
            chance
        );
        assert_eq!(out.history.len() as i64, 12);
    }

    #[test]
    fn mf_bsl_learns_signal() {
        let ds = tiny();
        // τ1 well above τ2: at this tiny scale the margins z_b spread over
        // several units, so a too-small τ1 concentrates the row weights and
        // slows early epochs (the same effect Fig 13 shows for tiny τ1/τ2).
        let cfg = TrainConfig {
            loss: LossConfig::Bsl { tau1: 0.5, tau2: 0.15 },
            epochs: 12,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20) > random_baseline(&ds) * 2.0);
    }

    #[test]
    fn lightgcn_bpr_learns_signal() {
        let ds = tiny();
        let cfg = TrainConfig {
            backbone: BackboneConfig::LightGcn { layers: 2 },
            loss: LossConfig::Bpr,
            epochs: 10,
            negatives: 4,
            lr: 0.05,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20) > random_baseline(&ds) * 1.5);
    }

    #[test]
    fn in_batch_sampling_learns_signal() {
        let ds = tiny();
        let cfg = TrainConfig {
            sampling: SamplingConfig::InBatch,
            batch_size: 64,
            epochs: 10,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20) > random_baseline(&ds) * 1.5);
    }

    #[test]
    fn cml_path_trains_and_evaluates() {
        let ds = tiny();
        let cfg = TrainConfig {
            backbone: BackboneConfig::Cml,
            loss: LossConfig::Hinge { margin: 0.5 },
            epochs: 10,
            lr: 0.05,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert_eq!(out.eval_score, bsl_models::EvalScore::NegSqDist);
        assert!(out.best.ndcg(20).is_finite());
        assert!(out.best.ndcg(20) > 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let ds = tiny();
        let cfg = TrainConfig { epochs: 3, ..TrainConfig::smoke() };
        let a = Trainer::new(cfg).fit(&ds);
        let b = Trainer::new(cfg).fit(&ds);
        assert_eq!(a.best.ndcg(20), b.best.ndcg(20));
        assert_eq!(a.user_emb.as_slice(), b.user_emb.as_slice());
    }

    #[test]
    fn threads_one_replays_bit_for_bit() {
        // `threads: 1` is the historical serial path; two runs (and the
        // default config, which pins threads = 1) must agree bit-for-bit.
        let ds = tiny();
        let cfg = TrainConfig { epochs: 3, threads: 1, ..TrainConfig::smoke() };
        let a = Trainer::new(cfg).fit(&ds);
        let b = Trainer::new(cfg).fit(&ds);
        let default_cfg = Trainer::new(TrainConfig { epochs: 3, ..TrainConfig::smoke() }).fit(&ds);
        assert_eq!(a.user_emb.as_slice(), b.user_emb.as_slice());
        assert_eq!(a.item_emb.as_slice(), b.item_emb.as_slice());
        assert_eq!(a.user_emb.as_slice(), default_cfg.user_emb.as_slice());
        assert_eq!(a.best.ndcg(20), default_cfg.best.ndcg(20));
    }

    #[test]
    fn parallel_trainer_is_deterministic_per_thread_count() {
        let ds = tiny();
        let cfg = TrainConfig { epochs: 3, threads: 3, ..TrainConfig::smoke() };
        let a = Trainer::new(cfg).fit(&ds);
        let b = Trainer::new(cfg).fit(&ds);
        assert_eq!(a.user_emb.as_slice(), b.user_emb.as_slice());
        assert_eq!(a.best.ndcg(20), b.best.ndcg(20));
    }

    #[test]
    fn sharded_step_matches_serial_math_on_identical_batches() {
        // With a single batch per epoch, every batch index maps to shard 0,
        // whose RNG stream continues the shuffle stream — i.e. the sampled
        // negatives are *identical* to the serial iterator's. Any remaining
        // difference is purely the sharded step's f32 reduction order.
        let ds = tiny();
        let one_batch = TrainConfig {
            epochs: 3,
            batch_size: 100_000, // the whole epoch in one batch
            ..TrainConfig::smoke()
        };
        let serial = Trainer::new(TrainConfig { threads: 1, ..one_batch }).fit(&ds);
        let sharded = Trainer::new(TrainConfig { threads: 4, ..one_batch }).fit(&ds);
        for (epoch_s, epoch_p) in serial.history.iter().zip(sharded.history.iter()) {
            assert!(
                (epoch_s.loss - epoch_p.loss).abs() < 1e-4 * (1.0 + epoch_s.loss.abs()),
                "epoch {} loss {} vs {}",
                epoch_s.epoch,
                epoch_s.loss,
                epoch_p.loss
            );
        }
        let max_diff = serial
            .user_emb
            .as_slice()
            .iter()
            .zip(sharded.user_emb.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 1e-3, "embeddings drifted {max_diff} beyond f32 reduction noise");
    }

    #[test]
    fn parallel_ndcg_within_tolerance_of_serial() {
        // Different shard counts run different negative-sampling streams,
        // so metrics move like a seed change — bounded, not bit-equal.
        let ds = tiny();
        let cfg = TrainConfig { epochs: 12, ..TrainConfig::smoke() };
        let serial = Trainer::new(TrainConfig { threads: 1, ..cfg }).fit(&ds);
        let parallel = Trainer::new(TrainConfig { threads: 4, ..cfg }).fit(&ds);
        let chance = random_baseline(&ds);
        assert!(parallel.best.ndcg(20) > chance * 2.0, "parallel run failed to learn");
        let gap = (serial.best.ndcg(20) - parallel.best.ndcg(20)).abs();
        assert!(
            gap < 0.15,
            "serial {:.4} vs parallel {:.4} NDCG@20 gap {gap:.4}",
            serial.best.ndcg(20),
            parallel.best.ndcg(20)
        );
    }

    #[test]
    fn parallel_in_batch_sampling_learns_signal() {
        let ds = tiny();
        let cfg = TrainConfig {
            sampling: SamplingConfig::InBatch,
            batch_size: 64,
            epochs: 10,
            threads: 3,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20) > random_baseline(&ds) * 1.5);
    }

    #[test]
    fn parallel_cml_path_trains() {
        // Exercises the NegSqDist branch of the sharded step.
        let ds = tiny();
        let cfg = TrainConfig {
            backbone: BackboneConfig::Cml,
            loss: LossConfig::Hinge { margin: 0.5 },
            epochs: 6,
            lr: 0.05,
            threads: 2,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20).is_finite());
        assert!(out.best.ndcg(20) > 0.0);
    }

    #[test]
    fn auto_threads_runs() {
        let ds = tiny();
        let cfg = TrainConfig { epochs: 2, threads: 0, ..TrainConfig::smoke() };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20).is_finite());
    }

    #[test]
    fn early_stopping_can_truncate() {
        let ds = tiny();
        let cfg = TrainConfig {
            epochs: 40,
            eval_every: 1,
            patience: 2,
            lr: 0.1, // aggressive LR so NDCG plateaus/oscillates early
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.history.len() <= 40);
        assert!(!out.eval_history.is_empty());
    }

    #[test]
    fn evaluate_on_matches_best_report() {
        let ds = tiny();
        let cfg = TrainConfig { epochs: 4, ..TrainConfig::smoke() };
        let out = Trainer::new(cfg).fit(&ds);
        let re = out.evaluate_on(&ds, &[20]);
        assert!((re.ndcg(20) - out.best.ndcg(20)).abs() < 1e-12);
    }

    #[test]
    fn noisy_sampling_config_runs() {
        let ds = tiny();
        let cfg = TrainConfig {
            sampling: SamplingConfig::Noisy { r_noise: 2.0 },
            epochs: 3,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20).is_finite());
    }

    #[test]
    fn popularity_sampling_config_runs() {
        let ds = tiny();
        let cfg = TrainConfig {
            sampling: SamplingConfig::Popularity { alpha: 1.0 },
            epochs: 3,
            ..TrainConfig::smoke()
        };
        let out = Trainer::new(cfg).fit(&ds);
        assert!(out.best.ndcg(20).is_finite());
    }
}
