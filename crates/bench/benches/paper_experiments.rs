//! One benchmark per table/figure of the paper (reduced scale).
//!
//! Each benchmark runs the same driver the `battle` CLI uses to regenerate
//! the corresponding result, so `cargo bench` exercises every reproduction
//! path end-to-end and tracks simulator performance over time.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::{fig1, fig34, fig6, fig7, fig9, run_entry, RunCfg, Sched};
use topology::Topology;

fn cfg(scale: f64) -> RunCfg {
    RunCfg::at_scale(scale)
}

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1_api_mapping", |b| {
        b.iter(|| experiments::table1::report().len())
    });
}

fn bench_fig1_table2(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_table2");
    g.sample_size(10);
    // Figure 1(a)/(b) and Table 2 come from the same runs.
    g.bench_function("fibo_sysbench_cfs", |b| {
        b.iter(|| fig1::run(Sched::Cfs, &cfg(0.02)).sysbench_tx_per_s)
    });
    g.bench_function("fibo_sysbench_ule", |b| {
        b.iter(|| fig1::run(Sched::Ule, &cfg(0.02)).sysbench_tx_per_s)
    });
    g.finish();
}

fn bench_fig2(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2");
    g.sample_size(10);
    g.bench_function("penalty_traces", |b| {
        b.iter(|| experiments::fig2::run(&cfg(0.02)).fibo_penalty.points.len())
    });
    g.finish();
}

fn bench_fig34(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig34");
    g.sample_size(10);
    g.bench_function("single_app_starvation", |b| {
        b.iter(|| {
            let f = fig34::run(&cfg(0.02));
            (f.interactive_count, f.background_count)
        })
    });
    g.finish();
}

fn bench_fig5(c: &mut Criterion) {
    // Single-core suite: representative members of each family keep the
    // bench short while covering every workload archetype.
    let topo = Topology::single_core();
    let suite = workloads::suite();
    let mut g = c.benchmark_group("fig5_single_core");
    g.sample_size(10);
    for name in ["Gzip", "scimark2-(3)", "Apache", "MG", "Sysbench", "ferret"] {
        let entry = suite.iter().find(|e| e.name == name).expect("entry");
        g.bench_function(format!("{name}_both_scheds"), |b| {
            b.iter(|| {
                let c1 = run_entry(entry, Sched::Cfs, &topo, &cfg(0.02), false).perf;
                let u1 = run_entry(entry, Sched::Ule, &topo, &cfg(0.02), false).perf;
                (c1, u1)
            })
        });
    }
    g.finish();
}

fn bench_fig6(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_rebalance");
    g.sample_size(10);
    g.bench_function("unpin_512_cfs", |b| {
        b.iter(|| fig6::run(Sched::Cfs, &cfg(0.1)).migrated_in_200ms)
    });
    g.bench_function("unpin_512_ule", |b| {
        b.iter(|| fig6::run(Sched::Ule, &cfg(0.1)).on_core0_after_unpin)
    });
    g.finish();
}

fn bench_fig7(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_cray");
    g.sample_size(10);
    g.bench_function("cray_placement_both", |b| {
        b.iter(|| {
            let u = fig7::run(Sched::Ule, &cfg(0.3));
            let c1 = fig7::run(Sched::Cfs, &cfg(0.3));
            (u.all_runnable_s, c1.all_runnable_s)
        })
    });
    g.finish();
}

fn bench_fig8(c: &mut Criterion) {
    // Multicore suite: representative subset on the 32-core machine.
    let topo = Topology::opteron_6172();
    let suite = workloads::suite();
    let mut g = c.benchmark_group("fig8_multicore");
    g.sample_size(10);
    for name in ["MG", "EP", "Sysbench"] {
        let entry = suite.iter().find(|e| e.name == name).expect("entry");
        g.bench_function(format!("{name}_both_scheds"), |b| {
            b.iter(|| {
                let c1 = run_entry(entry, Sched::Cfs, &topo, &cfg(0.05), true).perf;
                let u1 = run_entry(entry, Sched::Ule, &topo, &cfg(0.05), true).perf;
                (c1, u1)
            })
        });
    }
    // The hackbench scheduler stress-test (Figure 8's extra columns).
    let extra = workloads::multicore_extra();
    let hb = extra
        .iter()
        .find(|e| e.name == "Hackb-10")
        .expect("hackbench");
    g.bench_function("Hackb-10_both_scheds", |b| {
        b.iter(|| {
            let c1 = run_entry(hb, Sched::Cfs, &topo, &cfg(0.05), true).perf;
            let u1 = run_entry(hb, Sched::Ule, &topo, &cfg(0.05), true).perf;
            (c1, u1)
        })
    });
    g.finish();
}

fn bench_fig9(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_multiapp");
    g.sample_size(10);
    g.bench_function("four_pairs_both_scheds", |b| {
        b.iter(|| fig9::run(&cfg(0.02)).cells.len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_table1,
    bench_fig1_table2,
    bench_fig2,
    bench_fig34,
    bench_fig5,
    bench_fig6,
    bench_fig7,
    bench_fig8,
    bench_fig9
);
criterion_main!(benches);
