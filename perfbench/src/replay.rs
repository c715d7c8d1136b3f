//! Per-layer replays: the benchmark calls each layer's public functions
//! itself, on the workload's own partitions and with the fitted model,
//! as many times as one fit calls them, and times each call. Every loop
//! over a layer's calls sits inside a benchmark-side `obs` span, so a
//! traced run's trace shows the replay structure.

use std::hint::black_box;
use std::time::Instant;

use linalg::decomp::cholesky::solve_spd_right;
use linalg::decomp::lu::Lu;
use linalg::{Mat, Prng, SparseMat, SparseRow, Wire};
use sparkle::tree_merge;
use spca_core::mean_prop::{latent_row, ss3_block, YtxPartial};
use spca_core::serving::ServeLoad;
use spca_core::spark::{to_rows, SpRow};
use spca_core::{accuracy, Algorithm, PcaModel, SpcaConfig};

use crate::workload::Engine;

/// Host seconds spent in each replayed layer call, summed over one fit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replayed {
    pub ytx_s: f64,
    pub ss3_s: f64,
    pub rpca_pass_s: f64,
    pub reassemble_s: f64,
    pub merge_s: f64,
    pub encode_s: f64,
    pub update_s: f64,
    pub assemble_s: f64,
    pub error_s: f64,
    /// Bytes the YtX kernel calls read and write, computed from array
    /// sizes (input CSR, broadcast `CM`/`Xm`, output partial).
    pub ytx_bytes: f64,
}

impl Replayed {
    pub fn add(&mut self, o: &Replayed) {
        self.ytx_s += o.ytx_s;
        self.ss3_s += o.ss3_s;
        self.rpca_pass_s += o.rpca_pass_s;
        self.reassemble_s += o.reassemble_s;
        self.merge_s += o.merge_s;
        self.encode_s += o.encode_s;
        self.update_s += o.update_s;
        self.assemble_s += o.assemble_s;
        self.error_s += o.error_s;
        self.ytx_bytes += o.ytx_bytes;
    }
}

/// Runs `f` inside a span named after the layer call and adds its host
/// seconds to `slot`.
fn timed<T>(slot: &mut f64, span: &'static str, f: impl FnOnce() -> T) -> T {
    let _s = obs::span("perfbench", span);
    let t = Instant::now();
    let out = black_box(f());
    *slot += t.elapsed().as_secs_f64();
    out
}

/// Replays one fit's layer calls: `config` and `engine` as the fit ran,
/// `model` the model it produced.
pub fn fit(
    y: &SparseMat,
    config: &SpcaConfig,
    engine: Engine,
    partitions: usize,
    model: &PcaModel,
) -> Replayed {
    let blocks = y.split_rows(partitions.min(y.rows()).max(1));
    let sample = accuracy::sample_rows(y, config.error_sample_rows, config.seed);
    let mut r = Replayed::default();
    match config.algorithm {
        Algorithm::PpcaEm => em(&mut r, y, &blocks, engine, config.max_iters, model),
        Algorithm::Randomized => rpca(&mut r, &blocks, config, model),
    }
    let passes = match config.algorithm {
        Algorithm::PpcaEm => config.max_iters,
        Algorithm::Randomized => config.rpca_power_iters + 1,
    };
    for _ in 0..passes {
        timed(&mut r.error_s, "driver.error", || {
            accuracy::reconstruction_error(&sample, model)
        })
        .expect("a fitted model has a sampled error");
    }
    r
}

fn em(
    r: &mut Replayed,
    y: &SparseMat,
    blocks: &[SparseMat],
    engine: Engine,
    iters: usize,
    model: &PcaModel,
) {
    let c = model.components();
    let (d_in, d) = (c.rows(), c.cols());
    let ss = model.noise_variance();
    let mean = model.mean();
    let cm = model
        .latent_projection()
        .expect("a fitted model has a projection");
    let xm = cm.vecmat(mean);
    // The Spark engine holds each partition as row records and rebuilds a
    // CSR block per task; MapReduce hands blocks over directly.
    let rows: Vec<Vec<SpRow>> = blocks.iter().map(to_rows).collect();
    let views: Vec<Vec<SparseRow>> = rows
        .iter()
        .map(|p| p.iter().map(SpRow::view).collect())
        .collect();
    for _ in 0..iters {
        if engine == Engine::Spark {
            // Both the YtX and the ss3 stage reassemble every partition.
            for _ in 0..2 {
                timed(&mut r.reassemble_s, "engine.reassemble", || {
                    views
                        .iter()
                        .map(|v| SparseMat::from_row_views(d_in, v))
                        .collect::<Vec<_>>()
                });
            }
        }
        let partials = timed(&mut r.ytx_s, "kernels.ytx", || {
            blocks
                .iter()
                .map(|b| {
                    let mut p = YtxPartial::new(d);
                    p.add_block(b, &cm, &xm);
                    p
                })
                .collect::<Vec<_>>()
        });
        for (b, p) in blocks.iter().zip(&partials) {
            let input = b.nnz() * 12 + (b.rows() + 1) * 8;
            let output = (p.touched_cols() * d + d * d + d) * 8;
            r.ytx_bytes += (input + (d_in * d + d) * 8 + output) as f64;
        }
        timed(&mut r.encode_s, "wire.encode", || {
            let shuffled: usize = partials.iter().map(|p| p.encode().len()).sum();
            shuffled + cm.encode().len() + xm.encode().len() + c.encode().len()
        });
        let copies = partials.clone();
        let merged = timed(&mut r.merge_s, "engine.merge", || {
            tree_merge(copies, || YtxPartial::new(d), |a, b| a.merge(b))
        });
        timed(&mut r.ss3_s, "kernels.ss3", || {
            blocks
                .iter()
                .map(|b| ss3_block(b, &cm, &xm, c))
                .sum::<f64>()
        });
        let m_inv = timed(&mut r.update_s, "driver.update", || {
            let mut m = c.matmul_tn(c);
            m.add_diag(ss);
            let m_inv = Lu::new(&m)
                .expect("M is invertible for a fitted model")
                .inverse();
            black_box(c.matmul(&m_inv).vecmat(mean));
            m_inv
        });
        timed(&mut r.assemble_s, "driver.assemble", || {
            let mut xtx = merged.xtx.clone();
            xtx.add_scaled(y.rows() as f64 * ss, &m_inv);
            let ytx = merged.finalize_ytx(mean);
            let c_new = solve_spd_right(&xtx, &ytx).expect("XtX is positive definite");
            xtx.matmul(&c_new.matmul_tn(&c_new)).trace()
        });
    }
}

fn rpca(r: &mut Replayed, blocks: &[SparseMat], config: &SpcaConfig, model: &PcaModel) {
    let mean = model.mean();
    let k = config.components + config.rpca_oversample;
    let w: Mat = Prng::seed_from_u64(config.seed ^ 0x03e6a).normal_mat(mean.len(), k);
    let shift = w.vecmat(mean);
    for _ in 0..=config.rpca_power_iters {
        // The pass kernel: P = Y_p·W − 1⊗shift, its column sums, Y_pᵀP.
        let partials = timed(&mut r.rpca_pass_s, "kernels.rpca_pass", || {
            blocks
                .iter()
                .map(|b| {
                    let mut p = b.mul_dense(&w);
                    let mut colsum = vec![0.0; k];
                    for row in 0..p.rows() {
                        linalg::vector::axpy(-1.0, &shift, p.row_mut(row));
                        linalg::vector::axpy(1.0, p.row(row), &mut colsum);
                    }
                    (linalg::kernels::spmm_tn(b, &p), colsum)
                })
                .collect::<Vec<_>>()
        });
        timed(&mut r.encode_s, "wire.encode", || {
            let shuffled: usize = partials.iter().map(|p| p.encode().len()).sum();
            shuffled + w.encode().len() + shift.encode().len()
        });
    }
}

/// Projects one tenant's whole batch stream through its model's
/// `latent_row`, in the order the serving loop precomputes it.
pub fn project_stream(load: &ServeLoad, model: &PcaModel) -> f64 {
    let cm = model
        .latent_projection()
        .expect("a served model has a projection");
    let xm = cm.vecmat(model.mean());
    let pool_rows = load.pool.rows();
    let mut secs = 0.0;
    timed(&mut secs, "serve.project", || {
        let mut sum = 0.0;
        for k in 0..load.batches {
            let start = (k * load.batch_rows) % pool_rows;
            for i in 0..load.batch_rows {
                sum += latent_row(load.pool.row((start + i) % pool_rows), &cm, &xm)[0];
            }
        }
        sum
    });
    secs
}
