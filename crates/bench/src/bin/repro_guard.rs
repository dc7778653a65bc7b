//! The CI guards, one binary: `repro_guard <name>|all [--secs S]
//! [--min-ratio R] [--json]`. The table of guards, what each checks and
//! why is [`plab_bench::guard`]; exit status is 0 when every check held,
//! 1 when one failed, 2 on a bad command line.

fn main() {
    // The netsim-shard guard measures world construction in fresh copies
    // of this process.
    plab_bench::netsim_scale::serve_build_cost();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(plab_bench::guard::run(&args));
}
