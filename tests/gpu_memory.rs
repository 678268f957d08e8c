//! Counting-global-allocator proof that the GPU baseline model's memory
//! is bounded by its L2 geometry, not by the graph it simulates.
//!
//! A test-only `#[global_allocator]` wraps [`System`] and tracks live and
//! peak heap bytes. The test builds ACM at two scales, then measures the
//! peak bytes each `GpuSim::try_execute` call allocates above the live
//! heap at its start. The peak must be identical at both scales — the
//! cache model holds O(L2 lines) of state whatever the edge count — and
//! no larger than the L2's tag array plus a small constant.
//!
//! This lives in its own integration-test binary because a global
//! allocator is process-wide: a single `#[test]` keeps other tests'
//! allocations out of the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gdr::accel::calib::{A100, T4};
use gdr::accel::gpu::GpuSim;
use gdr::hetgraph::datasets::Dataset;
use gdr::hgnn::model::{ModelConfig, ModelKind};
use gdr::hgnn::workload::Workload;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Peak heap bytes `f` allocates above the live heap at its start.
fn peak_bytes_of(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst) - base
}

#[test]
fn gpu_model_memory_is_bounded_by_l2_lines_not_edges() {
    let inputs: Vec<_> = [0.05, 0.2]
        .iter()
        .map(|&scale| {
            let het = Dataset::Acm.build_scaled(1, scale);
            let workload = Workload::from_hetero(ModelConfig::paper(ModelKind::Rgcn), &het);
            (workload, het.all_semantic_graphs())
        })
        .collect();
    let edges = |i: usize| inputs[i].1.iter().map(|g| g.edge_count()).sum::<usize>();
    assert!(
        edges(1) > 3 * edges(0),
        "premise: the larger scale has more edges"
    );

    for params in [T4, A100] {
        let sim = GpuSim::new(params);
        let peaks: Vec<usize> = inputs
            .iter()
            .map(|(workload, graphs)| {
                peak_bytes_of(|| {
                    sim.try_execute(workload, graphs).unwrap();
                })
            })
            .collect();
        let tag_bytes = params.l2_bytes / params.l2_sector * 8;
        assert_eq!(
            peaks[0],
            peaks[1],
            "{}: peak heap grew with the graph ({} → {} edges)",
            params.name,
            edges(0),
            edges(1)
        );
        assert!(
            peaks[0] <= tag_bytes + tag_bytes / 4,
            "{}: peak {} B exceeds the L2 tag array ({tag_bytes} B) by more than a quarter",
            params.name,
            peaks[0]
        );
    }
}
