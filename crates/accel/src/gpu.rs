//! GPU baseline models: DGL 1.0.2 on NVIDIA T4 and A100.
//!
//! A hybrid trace + roofline model, standing in for running DGL on the
//! real GPUs: the NA stage's feature gathers run through a
//! sector-accurate L2 cache simulation — reproducing the paper's measured
//! L2 hit ratios and the dataset-dependent thrashing — while regular
//! streaming stages use bandwidth/compute rooflines with calibrated
//! efficiencies. DGL's per-relation eager execution is charged per-kernel
//! launch overhead and its heterogeneous COO path materializes per-edge
//! messages through DRAM, both of which the characterization study
//! [Yan et al., CAL 2022] identifies as the dominant GPU inefficiencies.
//!
//! # Write-once message sectors
//!
//! Per edge the L2 sees the source feature's sectors gathered, then the
//! edge's message sectors written. Message tags (bit 63, graph, edge
//! index, sector) are unique, so a message sector never hits: under LRU
//! it only pushes the gathered lines of its set one way down. The L2 is
//! therefore a [`WriteOnceLru`], which stores the gathered lines and
//! counts each set's message sectors with one increment instead of a
//! 16-way tag scan. Hits and misses equal those of an LRU
//! `SetAssocBuffer` fed every sector as long as message tags stay unique
//! (at most 256 sectors per message, the tag's sector field) and one
//! execution writes at most [`WriteOnceLru::MAX_WRITE_ONCE`] message
//! sectors; [`GpuSim::try_execute`] rejects other executions up front.

use gdr_core::schedule::EdgeSchedule;
use gdr_hetgraph::{BipartiteGraph, GdrError, GdrResult};
use gdr_hgnn::workload::Workload;
use gdr_memsim::buffer::WriteOnceLru;

use crate::calib::{
    dgl_kernels, dgl_message_bytes_per_edge, GpuParams, DRAM_ACCESS_BYTES, FEATURE_BYTES,
};
use crate::platform::{reject_schedules, Platform, PlatformRun};
use crate::report::{ExecReport, StageBreakdown};

/// One GPU execution: the report plus NA-stage cache observables.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuRun {
    /// Platform execution report.
    pub report: ExecReport,
    /// L2 hit ratio over NA-stage feature gathers (the §3 motivation
    /// metric: 30.1% IMDB / 17.5% DBLP on T4 with RGCN).
    pub na_l2_hit_rate: f64,
}

/// DGL-on-GPU simulator.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::datasets::Dataset;
/// use gdr_hgnn::model::{ModelConfig, ModelKind};
/// use gdr_hgnn::workload::Workload;
/// use gdr_accel::gpu::GpuSim;
/// use gdr_accel::calib::T4;
///
/// let het = Dataset::Acm.build_scaled(1, 0.05);
/// let w = Workload::from_hetero(ModelConfig::paper(ModelKind::Rgcn), &het);
/// let run = GpuSim::new(T4).execute(&w, &het.all_semantic_graphs());
/// assert!(run.report.time_ns > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSim {
    params: GpuParams,
}

impl GpuSim {
    /// Creates a simulator for a GPU parameter set ([`crate::calib::T4`]
    /// or [`crate::calib::A100`]).
    pub fn new(params: GpuParams) -> Self {
        Self { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &GpuParams {
        &self.params
    }

    /// Executes a workload end to end.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is not index-aligned with the workload. Use
    /// [`GpuSim::try_execute`] for a fallible variant.
    pub fn execute(&self, workload: &Workload, graphs: &[BipartiteGraph]) -> GpuRun {
        self.try_execute(workload, graphs)
            .expect("GPU execution inputs misaligned")
    }

    /// Fallible [`GpuSim::execute`].
    ///
    /// # Errors
    ///
    /// Returns [`GdrError::LengthMismatch`] if `graphs` is not
    /// index-aligned with the workload descriptors, and
    /// [`GdrError::InvalidConfig`] if an edge message spans more than 256
    /// L2 sectors (its tags would alias) or the execution writes more
    /// than [`WriteOnceLru::MAX_WRITE_ONCE`] message sectors (the L2
    /// model's per-set counters could wrap).
    pub fn try_execute(&self, workload: &Workload, graphs: &[BipartiteGraph]) -> GdrResult<GpuRun> {
        let p = self.params;
        let mut l2 = WriteOnceLru::with_capacity(p.l2_bytes / p.l2_sector, p.l2_ways);
        self.model(workload, graphs, |gi, g, sectors| {
            let mut pass = GatherPass::default();
            let mut edge_idx = 0u64;
            for d in 0..g.dst_count() {
                for &s in g.in_neighbors(d) {
                    for sector in 0..sectors.per_feature {
                        let tag = (gi << 48) | ((s as u64) << 8) | sector;
                        pass.accesses += 1;
                        if l2.access(tag) {
                            pass.hits += 1;
                        } else {
                            pass.miss_bytes += p.l2_sector as u64;
                        }
                    }
                    // DGL's COO path writes the per-edge message right after
                    // the gather; the stream pollutes L2 in place, and each
                    // of its sectors is unique, touched once.
                    for sector in 0..sectors.per_message {
                        l2.write_once(MESSAGE_TAG | (gi << 48) | (edge_idx << 8) | sector);
                    }
                    edge_idx += 1;
                }
            }
            pass
        })
    }

    /// Runs the model with `na_pass(gi, graph, sectors)` as the L2
    /// simulation of semantic graph `gi`'s NA stage.
    fn model(
        &self,
        workload: &Workload,
        graphs: &[BipartiteGraph],
        mut na_pass: impl FnMut(u64, &BipartiteGraph, Sectors) -> GatherPass,
    ) -> GdrResult<GpuRun> {
        GdrError::check_aligned(
            "workload graph descriptors",
            workload.graphs().len(),
            graphs.len(),
        )?;
        let p = self.params;
        let model = *workload.model();
        let attention = model.kind.uses_attention();
        let (k_fp, k_na, k_sf) = dgl_kernels(attention);
        let msg_per_edge = dgl_message_bytes_per_edge(attention, model.heads);
        let sectors = Sectors {
            per_feature: (FEATURE_BYTES / p.l2_sector).max(1) as u64,
            per_message: (msg_per_edge / p.l2_sector as u64).max(1),
        };
        let edges = graphs.iter().map(|g| g.edge_count() as u64).sum();
        check_message_sectors(edges, sectors.per_message)?;

        let mut stage = StageBreakdown::default();
        let mut dram_bytes: u64 = 0;
        let mut na_gather_accesses = 0u64;
        let mut na_gather_hits = 0u64;

        for (gi, (sgw, g)) in workload.graphs().iter().zip(graphs).enumerate() {
            // ---- FP: per-relation dense projection. DGL's relational
            //      models apply W_r to the *source* features of every
            //      relation (attention models also project the destination
            //      side for the logits), reading the materialized dense
            //      fp32 feature tensors each time — the framework-vs-
            //      accelerator gap HiHGNN's shared, zero-skipping FP
            //      avoids. ----
            let mut fp_bytes = 0u64;
            let mut fp_flops = 0f64;
            let mut endpoints = vec![(sgw.touched_src, sgw.src_in_dim)];
            if attention {
                endpoints.push((sgw.touched_dst, sgw.dst_in_dim));
            }
            for &(count, in_dim) in &endpoints {
                if in_dim == 0 {
                    fp_bytes += count as u64 * FEATURE_BYTES as u64; // embedding rows
                    fp_flops += (count * model.hidden_dim) as f64;
                } else {
                    fp_bytes += count as u64 * in_dim as u64 * 4;
                    fp_flops += 2.0 * (count * in_dim * model.hidden_dim) as f64;
                }
                fp_bytes += count as u64 * FEATURE_BYTES as u64; // projected write
            }
            // deeper layers project from hidden_dim instead of raw dims
            let deep = model.layers.saturating_sub(1) as u64;
            for &(count, _) in &endpoints {
                fp_bytes +=
                    deep * count as u64 * (model.hidden_dim as u64 * 4 + FEATURE_BYTES as u64);
                fp_flops +=
                    (deep * 2 * (count * model.hidden_dim * model.hidden_dim) as u64) as f64;
            }
            let t_fp_mem = fp_bytes as f64 / (p.mem_bw * p.stream_eff) * 1e9;
            let t_fp_cmp = fp_flops / (p.peak_flops * p.compute_eff) * 1e9;
            stage.fp_ns += t_fp_mem.max(t_fp_cmp);
            dram_bytes += fp_bytes;

            // ---- NA: sector-level L2 simulation of the source gathers,
            //      plus DGL's materialized per-edge message traffic ----
            let pass = na_pass(gi as u64, g, sectors);
            na_gather_accesses += pass.accesses;
            na_gather_hits += pass.hits;
            // the NA (and SF) stages repeat every layer over the same
            // topology, with the same per-layer traffic profile
            let layers = model.layers as u64;
            let message_bytes = sgw.edges as u64 * msg_per_edge * layers;
            let accum_bytes = sgw.touched_dst as u64 * FEATURE_BYTES as u64 * 2 * layers;
            let gather_bytes = pass.miss_bytes * layers;
            let t_na_gather = gather_bytes as f64 / (p.mem_bw * p.gather_eff) * 1e9;
            let t_na_stream =
                (message_bytes + accum_bytes) as f64 / (p.mem_bw * p.stream_eff) * 1e9;
            let na_flops = (workload.na_ops(sgw) * 2 * layers) as f64;
            let t_na_cmp = na_flops / (p.peak_flops * 0.10) * 1e9;
            stage.na_ns += (t_na_gather + t_na_stream).max(t_na_cmp);
            dram_bytes += gather_bytes + message_bytes + accum_bytes;

            // ---- SF: streaming fuse over destination embeddings ----
            let sf_bytes = sgw.touched_dst as u64 * FEATURE_BYTES as u64 * 2 * layers;
            let t_sf_mem = sf_bytes as f64 / (p.mem_bw * p.stream_eff) * 1e9;
            let t_sf_cmp = (workload.sf_ops(sgw) * 2 * layers) as f64 / (p.peak_flops * 0.2) * 1e9;
            stage.sf_ns += t_sf_mem.max(t_sf_cmp);
            dram_bytes += sf_bytes;

            stage.overhead_ns += (k_fp + k_na + k_sf) as f64 * p.launch_ns * layers as f64;
        }

        let time_ns = stage.total_ns();
        let na_l2_hit_rate = if na_gather_accesses == 0 {
            0.0
        } else {
            na_gather_hits as f64 / na_gather_accesses as f64
        };
        let report = ExecReport {
            platform: p.name.to_string(),
            workload: format!("{}/{}", model.kind.name(), workload.dataset()),
            time_ns,
            dram_bytes,
            dram_accesses: dram_bytes.div_ceil(DRAM_ACCESS_BYTES),
            bandwidth_utilization: (dram_bytes as f64 / (p.mem_bw * time_ns * 1e-9)).min(1.0),
            stages: stage,
            na_hit_rate: Some(na_l2_hit_rate),
        };
        Ok(GpuRun {
            report,
            na_l2_hit_rate,
        })
    }
}

/// Tag bit of DGL's per-edge message sectors, which gathered feature
/// sectors never set.
const MESSAGE_TAG: u64 = 1 << 63;

/// Checks that `edges` messages of `per_message` sectors each get unique
/// tags (the sector index fits the tag's low 8 bits) and stay within
/// the write-once lines [`WriteOnceLru`] counts exactly.
fn check_message_sectors(edges: u64, per_message: u64) -> GdrResult<()> {
    let reason = if per_message > 1 << 8 {
        format!("{per_message} sectors per edge message overflow the tag's 8-bit sector field")
    } else if edges.saturating_mul(per_message) > WriteOnceLru::MAX_WRITE_ONCE {
        format!(
            "{edges} edges × {per_message} message sectors exceed the L2 model's {} write-once lines",
            WriteOnceLru::MAX_WRITE_ONCE
        )
    } else {
        return Ok(());
    };
    Err(GdrError::invalid_config("message sectors", reason))
}

/// L2 sectors per gathered feature and per edge message.
#[derive(Debug, Clone, Copy)]
struct Sectors {
    per_feature: u64,
    per_message: u64,
}

/// NA-stage L2 observables of one semantic graph's gathers.
#[derive(Debug, Default)]
struct GatherPass {
    accesses: u64,
    hits: u64,
    miss_bytes: u64,
}

impl Platform for GpuSim {
    fn name(&self) -> &str {
        self.params.name
    }

    fn execute(
        &self,
        workload: &Workload,
        graphs: &[BipartiteGraph],
        schedules: Option<&[EdgeSchedule]>,
    ) -> GdrResult<PlatformRun> {
        // DGL fixes its own kernel iteration order; restructured
        // schedules cannot be injected into the baseline.
        reject_schedules(Platform::name(self), schedules)?;
        let run = self.try_execute(workload, graphs)?;
        // `na_l2_hit_rate` already travels as `report.na_hit_rate`; the
        // GPU baselines have no further platform-specific observables.
        Ok(PlatformRun::from_report(run.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{A100, T4};
    use gdr_hetgraph::datasets::Dataset;
    use gdr_hgnn::model::{ModelConfig, ModelKind};
    use gdr_memsim::buffer::{Replacement, SetAssocBuffer};

    fn run_on(params: GpuParams, kind: ModelKind, d: Dataset, scale: f64) -> GpuRun {
        let het = d.build_scaled(1, scale);
        let w = Workload::from_hetero(ModelConfig::paper(kind), &het);
        GpuSim::new(params).execute(&w, &het.all_semantic_graphs())
    }

    /// The per-sector L2 loop the model ran before message sectors were
    /// counted per set: every sector, gathered or written, goes through
    /// an LRU [`SetAssocBuffer`]. Kept as the exactness oracle.
    fn reference_execute(
        sim: &GpuSim,
        workload: &Workload,
        graphs: &[BipartiteGraph],
    ) -> GdrResult<GpuRun> {
        let p = sim.params;
        let mut l2 =
            SetAssocBuffer::with_capacity(p.l2_bytes / p.l2_sector, p.l2_ways, Replacement::Lru);
        sim.model(workload, graphs, |gi, g, sectors| {
            let mut pass = GatherPass::default();
            let mut edge_idx = 0u64;
            for d in 0..g.dst_count() {
                for &s in g.in_neighbors(d) {
                    for sector in 0..sectors.per_feature {
                        let tag = (gi << 48) | ((s as u64) << 8) | sector;
                        pass.accesses += 1;
                        if l2.access(tag).is_hit() {
                            pass.hits += 1;
                        } else {
                            pass.miss_bytes += p.l2_sector as u64;
                        }
                    }
                    for sector in 0..sectors.per_message {
                        let tag = 0x8000_0000_0000_0000 | (gi << 48) | (edge_idx << 8) | sector;
                        l2.access(tag);
                    }
                    edge_idx += 1;
                }
            }
            pass
        })
    }

    #[test]
    fn write_once_l2_matches_the_per_sector_reference() {
        // a 64 KiB L2 (128 sets × 16 ways) thrashes at test scale, so
        // message sectors decide which gathers hit
        let mut thrashed = 0;
        for params in [T4, A100] {
            let params = GpuParams {
                l2_bytes: 64 << 10,
                ..params
            };
            let sim = GpuSim::new(params);
            for d in [Dataset::Acm, Dataset::Imdb, Dataset::Dblp] {
                let het = d.build_scaled(7, 0.05);
                let graphs = het.all_semantic_graphs();
                for kind in [ModelKind::Rgcn, ModelKind::Rgat, ModelKind::SimpleHgn] {
                    let w = Workload::from_hetero(ModelConfig::paper(kind), &het);
                    let run = sim.try_execute(&w, &graphs).unwrap();
                    let reference = reference_execute(&sim, &w, &graphs).unwrap();
                    assert_eq!(run, reference, "{} {kind:?} {d:?}", params.name);
                    thrashed += (run.na_l2_hit_rate > 0.0 && run.na_l2_hit_rate < 0.9) as usize;
                }
            }
        }
        assert_eq!(thrashed, 18, "every cell both hits and misses");
    }

    #[test]
    fn message_sectors_past_the_write_once_bound_rejected() {
        let rejected = |edges, per_message| {
            matches!(
                check_message_sectors(edges, per_message),
                Err(GdrError::InvalidConfig {
                    what: "message sectors",
                    ..
                })
            )
        };
        // u32::MAX = 17 × 252645135: the last exact count, then one more
        assert!(!rejected(252_645_135, 17));
        assert!(rejected(252_645_136, 17));
        assert!(rejected(u64::MAX, 2));
        // sector indices 0..=255 fit the tag, 256 would alias the next edge
        assert!(!rejected(1, 256));
        assert!(rejected(1, 257));

        // through the model, before any simulation: an RGAT message is
        // 512 + 16·heads bytes, 31 sectors at 30 heads, 264 at 496
        let het = Dataset::Acm.build_scaled(1, 0.05);
        let graphs = het.all_semantic_graphs();
        for (heads, ok) in [(30, true), (496, false)] {
            let model = ModelConfig {
                heads,
                ..ModelConfig::paper(ModelKind::Rgat)
            };
            let w = Workload::from_hetero(model, &het);
            let run = GpuSim::new(T4).try_execute(&w, &graphs);
            assert_eq!(run.is_ok(), ok, "{heads} heads");
        }
    }

    #[test]
    fn a100_is_faster_than_t4() {
        let t4 = run_on(T4, ModelKind::Rgcn, Dataset::Acm, 0.1);
        let a100 = run_on(A100, ModelKind::Rgcn, Dataset::Acm, 0.1);
        assert!(
            a100.report.time_ns < t4.report.time_ns,
            "a100 {} vs t4 {}",
            a100.report.time_ns,
            t4.report.time_ns
        );
    }

    #[test]
    fn bigger_l2_hits_more() {
        // At a scale where DBLP's feature working set overflows T4's 4 MiB
        // L2 but not A100's 40 MiB, the hit-ratio gap must appear.
        let t4 = run_on(T4, ModelKind::Rgcn, Dataset::Dblp, 0.6);
        let a100 = run_on(A100, ModelKind::Rgcn, Dataset::Dblp, 0.6);
        assert!(
            a100.na_l2_hit_rate > t4.na_l2_hit_rate,
            "a100 {} vs t4 {}",
            a100.na_l2_hit_rate,
            t4.na_l2_hit_rate
        );
    }

    #[test]
    fn na_is_a_major_time_fraction() {
        // The paper's motivation cites NA at up to ~74% of inference; in
        // our model DGL's dense per-relation FP is also charged, so NA
        // lands lower but must remain a major component.
        let run = run_on(T4, ModelKind::Rgcn, Dataset::Dblp, 0.5);
        assert!(
            run.report.stages.na_fraction() > 0.15,
            "na fraction {}",
            run.report.stages.na_fraction()
        );
    }

    #[test]
    fn attention_models_cost_more() {
        let rgcn = run_on(T4, ModelKind::Rgcn, Dataset::Acm, 0.1);
        let shgn = run_on(T4, ModelKind::SimpleHgn, Dataset::Acm, 0.1);
        assert!(shgn.report.time_ns > rgcn.report.time_ns);
        assert!(shgn.report.dram_bytes > rgcn.report.dram_bytes);
    }

    #[test]
    fn platform_trait_rejects_schedules() {
        let het = Dataset::Acm.build_scaled(1, 0.05);
        let w = Workload::from_hetero(ModelConfig::paper(ModelKind::Rgcn), &het);
        let graphs = het.all_semantic_graphs();
        let sim = GpuSim::new(T4);
        let p: &dyn Platform = &sim;
        assert_eq!(p.name(), "T4");
        assert!(!p.supports_schedules());
        let run = p.execute(&w, &graphs, None).unwrap();
        assert_eq!(run.report.platform, "T4");
        let schedules: Vec<EdgeSchedule> = graphs.iter().map(EdgeSchedule::dst_major).collect();
        let err = p.execute(&w, &graphs, Some(&schedules)).unwrap_err();
        assert!(matches!(err, gdr_hetgraph::GdrError::InvalidConfig { .. }));
    }

    #[test]
    fn utilization_bounded() {
        let run = run_on(A100, ModelKind::Rgat, Dataset::Imdb, 0.1);
        let u = run.report.bandwidth_utilization;
        assert!(u > 0.0 && u <= 1.0);
        assert_eq!(run.report.platform, "A100");
    }
}
