//! §I's transition question: application power strategies must move to new
//! architectures quickly — how does the 50 %-TDP rule transfer?
//!
//! ```text
//! cargo run --release --example next_architecture
//! ```
//!
//! Compares the cap response of representative kernels on the study's
//! A100-40GB against an H100-like 700 W device (same calibrated throttle
//! physics, scaled envelope) and reports where the <10 %-loss cap sits on
//! each as a fraction of TDP.

use vasp_power_profiles::gpu::{A100Spec, Gpu, GpuVariability, Kernel, KernelKind};
use vasp_power_profiles::gpu::calib::ThrottleCalib;

fn device(spec: A100Spec) -> Gpu {
    Gpu::new(spec, ThrottleCalib::calibrated(), GpuVariability::nominal())
}

fn deepest_cap_within(gpu_spec: A100Spec, kernel: &Kernel, loss_budget: f64) -> f64 {
    let mut best = gpu_spec.max_cap_w;
    let mut cap = gpu_spec.max_cap_w;
    while cap >= gpu_spec.min_cap_w {
        let mut gpu = device(gpu_spec);
        gpu.set_power_limit(cap);
        if gpu.execute(kernel).perf >= 1.0 - loss_budget {
            best = cap;
        }
        cap -= 10.0;
    }
    best
}

fn main() {
    let kernels = [
        ("tensor GEMM (HSE-like)", Kernel::new(KernelKind::TensorGemm, 2.0e7, 1.0)),
        ("batched FFT (DFT-like)", Kernel::new(KernelKind::Fft3d, 4.0e6, 1.0)),
        ("bandwidth-bound (MILC-like)", Kernel::new(KernelKind::MemBound, 4.0e6, 1.0)),
    ];

    for (label, spec) in [
        ("A100-40GB (the study)", A100Spec::perlmutter()),
        ("A100-80GB", A100Spec::a100_80gb()),
        ("H100-like what-if", A100Spec::h100_like()),
    ] {
        println!("{label}: TDP {:.0} W, cap range [{:.0}, {:.0}] W", spec.tdp_w, spec.min_cap_w, spec.max_cap_w);
        println!(
            "  {:<28} {:>10} {:>14} {:>12}",
            "kernel", "uncapped W", "≤10%-loss cap", "cap / TDP"
        );
        for (name, k) in &kernels {
            let gpu = device(spec);
            let p0 = gpu.uncapped_power(k);
            let cap = deepest_cap_within(spec, k, 0.10);
            println!(
                "  {name:<28} {p0:>10.0} {cap:>12.0} W {:>11.0}%",
                cap / spec.tdp_w * 100.0
            );
        }
        println!();
    }

    println!(
        "reading: the 50%-of-TDP rule is an *architecture-relative* policy —\n\
         on the hotter device the compute-bound kernels tolerate a similar\n\
         TDP fraction, while bandwidth-bound work caps even deeper. A new\n\
         machine needs recalibrated absolute caps but the classification\n\
         (hungry vs tolerant workloads) transfers."
    );
}
