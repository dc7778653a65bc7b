//! `repro <name> [flags]`: every table, figure, experiment, perf snapshot
//! and harness of the reproduction, one command each. The table of
//! names and the flags each accepts is [`plab_bench::guard::COMMANDS`];
//! `repro` alone prints it. Exit status is a command's own (0 fine, 1 a
//! check or replay failed) or 2 on a bad command line, said on stderr.

use plab_bench::guard::{self, Opts};

/// One module a command, named after it, its body `run(&Opts) -> i32`
/// (`guard`'s is the library's): what `repro <name>` runs.
macro_rules! bodies {
    ($($name:ident)*) => {
        $(mod $name;)*
        fn body(name: &str) -> fn(&Opts) -> i32 {
            match name {
                $(stringify!($name) => $name::run,)*
                "guard" => guard::run,
                _ => unreachable!("`{name}` is in COMMANDS and has no body"),
            }
        }
    };
}
bodies!(bandwidth bwest chaos contention ctrl_scale fig1 fig2 fleet fuzz netsim_scale rendezvous
    rtt_limitation table1 throughput traceroute);

fn main() {
    // `guard netsim-shard` and `netsim_scale` measure world construction
    // in fresh copies of this process.
    plab_bench::netsim_scale::serve_build_cost();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match guard::parse(&args) {
        Ok((command, opts)) => body(command.name)(&opts),
        Err(usage) => {
            eprintln!("{usage}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_command_in_the_table_has_a_body() {
        for command in &plab_bench::guard::COMMANDS {
            super::body(command.name);
        }
    }
}
