//! `perf-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host block and detail lines, then the result object as
//! the last line of standard output. Bad arguments print the usage on
//! standard error and exit with code 2; a failed run exits with 1.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match perf_ledger::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf-ledger: {e}\n{}", perf_ledger::USAGE);
            return ExitCode::from(2);
        }
    };
    match perf_ledger::run(&args) {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", outcome.result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perf-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
