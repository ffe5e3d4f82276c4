//! `minpower` — command-line driver for the DAC'97 device-circuit
//! optimizer.
//!
//! ```text
//! minpower optimize s298 --fc 300e6 --activity 0.3 --report 10
//! minpower optimize my_design.bench --tolerance 0.15 --vt-groups 2
//! minpower baseline s298 --vt 0.7
//! minpower stats c17.v
//! minpower budget s298 --fc 300e6
//! minpower convert c17.bench c17.v
//! minpower suite
//! ```
//!
//! Circuits are named suite members (`minpower suite` lists them) or
//! files with a `.bench` / `.v` extension.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use minpower::opt::baseline;
use minpower::opt::report::Report;
use minpower::{
    CheckpointSpec, CircuitModel, Netlist, OptimizeError, Optimizer, Problem, RunControl,
    SearchOptions, Technology,
};

/// A CLI failure with a documented exit code (see `minpower help`):
/// `2` bad usage, `3` infeasible problem, `4` interrupted (a partial
/// result was printed), `1` everything else.
#[derive(Debug)]
enum CliError {
    /// Unknown command, bad flag, unreadable or malformed circuit.
    Usage(String),
    /// The optimizer proved no probed design meets the cycle time.
    Infeasible(String),
    /// Ctrl-C or `--time-limit` stopped the run; the best design found
    /// so far (if any) was already printed.
    Interrupted(String),
    /// I/O failures, checkpoint corruption, worker panics.
    Other(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Infeasible(_) => 3,
            CliError::Interrupted(_) => 4,
            CliError::Other(_) => 1,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Infeasible(m)
            | CliError::Interrupted(m)
            | CliError::Other(m) => m,
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

/// Maps optimizer failures onto exit-code classes. `Interrupted` is
/// handled (with partial-result printing) before reaching this.
fn map_opt_err(e: OptimizeError) -> CliError {
    match &e {
        OptimizeError::Infeasible { .. } => CliError::Infeasible(e.to_string()),
        OptimizeError::Interrupted { .. } => CliError::Interrupted(e.to_string()),
        OptimizeError::BadOption { .. } | OptimizeError::EmptyNetwork => {
            CliError::Usage(e.to_string())
        }
        _ => CliError::Other(e.to_string()),
    }
}

/// SIGINT wiring: the first Ctrl-C flips the optimizer's shared cancel
/// token so the search stops at the next probe boundary and reports its
/// best-so-far; a second Ctrl-C falls back to the default disposition
/// (immediate termination).
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static TOKEN: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    #[cfg(unix)]
    mod imp {
        const SIGINT: i32 = 2;
        const SIG_DFL: usize = 0;

        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }

        extern "C" fn on_sigint(_sig: i32) {
            // Async-signal context: only lock-free atomics. `get` is a
            // single atomic load; the token was set before installation.
            if let Some(token) = super::TOKEN.get() {
                token.store(true, Ordering::Relaxed);
            }
            // Restore the default handler so a second Ctrl-C kills a run
            // that is stuck between poll points.
            unsafe { signal(SIGINT, SIG_DFL) };
        }

        use super::*;

        pub fn install() {
            unsafe { signal(SIGINT, on_sigint as extern "C" fn(i32) as usize) };
        }
    }

    #[cfg(not(unix))]
    mod imp {
        pub fn install() {}
    }

    /// Arms Ctrl-C to set `token`. Safe to call once per process.
    pub fn install(token: Arc<AtomicBool>) {
        if TOKEN.set(token).is_ok() {
            imp::install();
        }
    }
}

/// SIGTERM wiring for the server commands: a fleet rotation (systemd,
/// Kubernetes, CI) delivers SIGTERM expecting a graceful drain — the
/// server refuses new work but finishes what is in flight, then exits.
/// A second SIGTERM falls back to the default disposition (immediate
/// termination), same escalation shape as Ctrl-C.
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static TOKEN: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    #[cfg(unix)]
    mod imp {
        const SIGTERM: i32 = 15;
        const SIG_DFL: usize = 0;

        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }

        extern "C" fn on_sigterm(_sig: i32) {
            if let Some(token) = super::TOKEN.get() {
                token.store(true, Ordering::Relaxed);
            }
            unsafe { signal(SIGTERM, SIG_DFL) };
        }

        use super::*;

        pub fn install() {
            unsafe { signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize) };
        }
    }

    #[cfg(not(unix))]
    mod imp {
        pub fn install() {}
    }

    /// Arms SIGTERM to set `token`. Safe to call once per process.
    pub fn install(token: Arc<AtomicBool>) {
        if TOKEN.set(token).is_ok() {
            imp::install();
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(());
    };
    let rest = &args[1..];
    install_engine(&Flags::new(rest))?;
    match command.as_str() {
        "optimize" => optimize(rest),
        "serve" => serve(rest),
        "coord" => coord(rest),
        "baseline" => baseline_cmd(rest),
        "stats" => stats(rest),
        "budget" => budget(rest),
        "convert" => convert(rest),
        "suite" => {
            println!("s27 (genuine ISCAS-89), c17 (genuine ISCAS-85)");
            for spec in minpower::circuits::specs() {
                println!(
                    "{} (synthetic stand-in: {} gates, {} inputs, depth {})",
                    spec.name, spec.gates, spec.inputs, spec.depth
                );
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}` (try `minpower help`)"
        ))),
    }
}

fn print_usage() {
    println!(
        "minpower — joint Vdd/Vt/width optimization for CMOS random logic (DAC'97)\n\
         \n\
         usage:\n\
         \x20 minpower optimize <circuit> [--fc HZ] [--activity A] [--steps M]\n\
         \x20                   [--vt-groups N] [--tolerance T] [--skew B] [--report N]\n\
         \x20                   [--sizing budgeted|greedy] [--time-limit SECS]\n\
         \x20                   [--checkpoint FILE] [--resume FILE] [--format human|json]\n\
         \x20 minpower serve    [--addr HOST:PORT] [--workers N] [--queue-depth N]\n\
         \x20                   [--job-time-limit SECS] [--state-dir DIR]\n\
         \x20                   [--max-sessions N] [--session-ttl SECS]\n\
         \x20                   [--ops-rate R] [--ops-burst B]\n\
         \x20                   [--client-rate R] [--client-burst B]\n\
         \x20                   [--session-quota-bytes N] [--session-disk-budget N]\n\
         \x20                   [--mem-budget-bytes N] [--session-compact-bytes N]\n\
         \x20                   [--worker --shared-dir DIR]\n\
         \x20 minpower coord    --workers HOST:PORT,HOST:PORT,... [--addr HOST:PORT]\n\
         \x20                   [--state-dir DIR] [--lease-ttl SECS]\n\
         \x20                   [--dispatch-timeout SECS] [--connect-timeout SECS]\n\
         \x20                   [--retry-budget N] [--hedge-delay-floor SECS]\n\
         \x20                   [--job-deadline SECS] [--max-gates N]\n\
         \x20 minpower baseline <circuit> [--fc HZ] [--activity A] [--vt V]\n\
         \x20 minpower stats    <circuit>\n\
         \x20 minpower budget   <circuit> [--fc HZ]\n\
         \x20 minpower convert  <in.bench|in.v> <out.bench|out.v>\n\
         \x20 minpower suite\n\
         \n\
         engine flags (any command): --threads N (default: all cores),\n\
         \x20 --no-cache (disable probe memoization)\n\
         \n\
         run control (optimize): --time-limit SECS stops the search at the\n\
         \x20 next probe once the soft deadline passes; Ctrl-C stops the same\n\
         \x20 way. Either prints the best design found so far and exits 4.\n\
         \x20 --checkpoint FILE journals the run: each probe is appended once\n\
         \x20 to an append-only, CRC-framed probe journal (format version 2)\n\
         \x20 and fsynced in batches; --resume FILE replays the journal's\n\
         \x20 longest valid prefix (a torn tail is cut off) and finishes\n\
         \x20 bit-identically to an uninterrupted run.\n\
         \n\
         exit codes: 0 success, 1 runtime error, 2 bad usage,\n\
         \x20 3 infeasible (no design meets the cycle time),\n\
         \x20 4 interrupted (partial result printed if one was found)\n\
         \n\
         <circuit> is a suite name (see `minpower suite`) or a .bench/.v file."
    );
}

/// Installs the process-wide evaluation engine from the global
/// `--threads` / `--no-cache` flags. Must run before the first
/// optimization — the first probe materializes the default context.
fn install_engine(flags: &Flags<'_>) -> Result<(), String> {
    let threads = flags.get_usize("--threads", minpower::opt::context::default_threads())?;
    if threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    let capacity = if flags.has("--no-cache") {
        0
    } else {
        minpower::opt::context::DEFAULT_CACHE_CAPACITY
    };
    minpower::EvalContext::install(minpower::EvalContext::new(threads, capacity));
    Ok(())
}

fn print_engine_summary() {
    if let Some(summary) = minpower::opt::report::engine_summary() {
        print!("{summary}");
    }
}

/// Minimal flag parser: `--name value` pairs after positional arguments.
struct Flags<'a> {
    args: &'a [String],
}

/// Flags that take no value; every other `--flag` consumes one token.
const BOOLEAN_FLAGS: &[&str] = &["--no-cache", "--worker"];

/// Evaluation-engine flags accepted by every command.
const ENGINE_FLAGS: &[&str] = &["--threads", "--no-cache"];

fn flag_takes_value(flag: &str) -> bool {
    !BOOLEAN_FLAGS.contains(&flag)
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args }
    }

    /// The `index`-th token that is neither a flag nor a flag's value.
    fn positional(&self, index: usize) -> Option<&'a str> {
        let mut skip_next = false;
        let mut seen = 0usize;
        for a in self.args {
            if skip_next {
                skip_next = false;
                continue;
            }
            if a.starts_with("--") {
                skip_next = flag_takes_value(a);
                continue;
            }
            if seen == index {
                return Some(a);
            }
            seen += 1;
        }
        None
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None if self.has(name) => Err(format!("flag {name} requires a value")),
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("flag {name}: cannot parse `{v}`: {e}")),
        }
    }

    fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None if self.has(name) => Err(format!("flag {name} requires a value")),
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("flag {name}: cannot parse `{v}`: {e}")),
        }
    }

    fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None if self.has(name) => Err(format!("flag {name} requires a value")),
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("flag {name}: cannot parse `{v}`: {e}")),
        }
    }

    /// Rejects any `--flag` this command does not understand, so a typo
    /// (`--time-limt`) fails loudly as a usage error instead of silently
    /// running with defaults. Engine flags are accepted everywhere.
    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        let mut skip_next = false;
        for a in self.args {
            if skip_next {
                skip_next = false;
                continue;
            }
            if a.starts_with("--") {
                if !known.contains(&a.as_str()) && !ENGINE_FLAGS.contains(&a.as_str()) {
                    return Err(format!("unknown flag `{a}` (try `minpower help`)"));
                }
                skip_next = flag_takes_value(a);
            }
        }
        Ok(())
    }
}

fn positional_circuit(flags: &Flags<'_>) -> Result<Netlist, String> {
    // The first non-flag token that is not a flag *value*.
    let mut skip_next = false;
    for a in flags.args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a.starts_with("--") {
            skip_next = flag_takes_value(a);
            continue;
        }
        return load_circuit(a);
    }
    Err("missing circuit argument".to_string())
}

fn load_circuit(name: &str) -> Result<Netlist, String> {
    if name.ends_with(".bench") {
        minpower::circuits::load_bench_file(Path::new(name)).map_err(|e| e.to_string())
    } else if name.ends_with(".v") {
        let text = std::fs::read_to_string(name).map_err(|e| format!("{name}: {e}"))?;
        minpower::netlist::verilog::parse(&text).map_err(|e| e.to_string())
    } else if name == "c17" {
        Ok(minpower::circuits::c17())
    } else {
        minpower::circuits::circuit(name).ok_or_else(|| {
            format!("unknown circuit `{name}` (see `minpower suite`, or pass a .bench/.v file)")
        })
    }
}

fn build_problem(netlist: &Netlist, flags: &Flags<'_>) -> Result<Problem, String> {
    let fc = flags.get_f64("--fc", 300.0e6)?;
    let activity = flags.get_f64("--activity", 0.3)?;
    let skew = flags.get_f64("--skew", 1.0)?;
    if fc <= 0.0 {
        return Err("--fc must be positive".to_string());
    }
    if !(0.0..=1.0).contains(&activity) {
        return Err("--activity must lie in [0, 1] (a transition density per cycle)".to_string());
    }
    if !(0.0 < skew && skew <= 1.0) {
        return Err("--skew must lie in (0, 1]".to_string());
    }
    let model = CircuitModel::with_uniform_activity(netlist, Technology::dac97(), 0.5, activity);
    Ok(Problem::new(model, fc).with_clock_skew(skew))
}

fn search_options(flags: &Flags<'_>) -> Result<SearchOptions, String> {
    let sizing = match flags.get("--sizing") {
        None | Some("budgeted") => minpower::opt::search::SizingMethod::Budgeted,
        Some("greedy") => minpower::opt::search::SizingMethod::Greedy,
        Some(other) => {
            return Err(format!(
                "--sizing must be `budgeted` or `greedy`, got `{other}`"
            ))
        }
    };
    Ok(SearchOptions {
        steps: flags.get_usize("--steps", 14)?,
        vt_groups: flags.get_usize("--vt-groups", 1)?,
        vt_tolerance: flags.get_f64("--tolerance", 0.0)?,
        sizing,
        ..SearchOptions::default()
    })
}

/// How `optimize` renders its result on stdout.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    /// The human-readable block + optional gate table (default).
    Human,
    /// One `minpower-result` JSON document — the exact schema
    /// `minpower serve` returns for a finished job, so scripted callers
    /// can switch between the CLI and the service without reparsing.
    Json,
}

fn output_format(flags: &Flags<'_>) -> Result<OutputFormat, String> {
    match flags.get("--format") {
        None if flags.has("--format") => Err("flag --format requires a value".to_string()),
        None | Some("human") => Ok(OutputFormat::Human),
        Some("json") => Ok(OutputFormat::Json),
        Some(other) => Err(format!("--format must be `human` or `json`, got `{other}`")),
    }
}

/// Prints the result block shared by complete and interrupted runs.
fn print_result(problem: &Problem, result: &minpower::OptimizationResult, top: usize) {
    println!(
        "Vdd = {:.3} V, Vt = {}",
        result.design.vdd,
        result
            .uniform_vt()
            .map(|v| format!("{:.0} mV", v * 1e3))
            .unwrap_or_else(|| "per-group".to_string())
    );
    println!(
        "energy/cycle: static {:.3e} + dynamic {:.3e} = {:.3e} J",
        result.energy.static_,
        result.energy.dynamic,
        result.energy.total()
    );
    println!(
        "critical delay {:.3} ns of {:.3} ns",
        result.critical_delay * 1e9,
        problem.effective_cycle_time() * 1e9
    );
    if top > 0 {
        let report = Report::build(problem, result);
        print!("{}", report.render(top));
    }
}

fn optimize(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::new(args);
    flags.reject_unknown(&[
        "--fc",
        "--activity",
        "--skew",
        "--steps",
        "--vt-groups",
        "--tolerance",
        "--sizing",
        "--report",
        "--time-limit",
        "--checkpoint",
        "--resume",
        "--format",
    ])?;
    let netlist = positional_circuit(&flags)?;
    let problem = build_problem(&netlist, &flags)?;
    let options = search_options(&flags)?;
    let top = flags.get_usize("--report", 0)?;
    let format = output_format(&flags)?;

    let mut control = RunControl::new();
    let time_limit = flags.get_f64("--time-limit", 0.0)?;
    if time_limit < 0.0 || (flags.has("--time-limit") && !time_limit.is_finite()) {
        return Err(CliError::Usage(
            "--time-limit must be a finite, non-negative number of seconds".to_string(),
        ));
    }
    if time_limit > 0.0 {
        control = control.with_deadline(Duration::from_secs_f64(time_limit));
    }
    sigint::install(control.cancel_token());

    let mut optimizer = Optimizer::new(&problem)
        .with_options(options)
        .with_run_control(control.clone());
    if let Some(path) = flags.get("--checkpoint") {
        optimizer = optimizer.with_checkpoint(CheckpointSpec::new(path));
    } else if flags.has("--checkpoint") {
        return Err(CliError::Usage(
            "flag --checkpoint requires a file path".to_string(),
        ));
    }
    if let Some(path) = flags.get("--resume") {
        optimizer = optimizer.resume_from(path);
    } else if flags.has("--resume") {
        return Err(CliError::Usage(
            "flag --resume requires a file path".to_string(),
        ));
    }

    if format == OutputFormat::Human {
        println!("circuit {}: {}", netlist.name(), netlist.stats());
    }
    let t0 = std::time::Instant::now();
    let result = match optimizer.run() {
        Ok(result) => result,
        Err(OptimizeError::Interrupted {
            reason,
            best_so_far,
            progress,
        }) => {
            eprintln!(
                "interrupted ({reason}) after {} evaluations in {:.1} s",
                progress.evaluations, progress.elapsed_secs
            );
            match best_so_far {
                Some(best) => match format {
                    OutputFormat::Human => {
                        println!("best design so far (valid, delay-feasible):");
                        print_result(&problem, &best, top);
                        print_engine_summary();
                    }
                    OutputFormat::Json => {
                        // Stdout stays one parseable document even on
                        // interruption; the diagnostics above went to stderr.
                        println!(
                            "{}",
                            minpower::opt::report::result_to_json(&problem, &best, top).render()
                        );
                    }
                },
                None => eprintln!("no feasible design found before the interruption"),
            }
            return Err(CliError::Interrupted(format!("run interrupted ({reason})")));
        }
        Err(e) => return Err(map_opt_err(e)),
    };
    match format {
        OutputFormat::Human => {
            println!(
                "optimized in {:.2?} ({} circuit evaluations)",
                t0.elapsed(),
                result.evaluations
            );
            print_result(&problem, &result, top);
            print_engine_summary();
        }
        OutputFormat::Json => println!(
            "{}",
            minpower::opt::report::result_to_json(&problem, &result, top).render()
        ),
    }
    Ok(())
}

/// `minpower serve`: run the HTTP optimization service until SIGINT (or
/// `POST /shutdown`) drains it. Prints `listening on <addr>` first so
/// scripts binding port 0 can discover the actual port. Exit codes
/// follow the CLI convention: 0 for a clean drain, 4 when jobs were
/// interrupted mid-run (they stay resumable in the state directory).
fn serve(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::new(args);
    flags.reject_unknown(&[
        "--addr",
        "--workers",
        "--queue-depth",
        "--job-time-limit",
        "--state-dir",
        "--max-gates",
        "--worker",
        "--shared-dir",
        "--max-sessions",
        "--session-ttl",
        "--ops-rate",
        "--ops-burst",
        "--client-rate",
        "--client-burst",
        "--session-quota-bytes",
        "--session-disk-budget",
        "--mem-budget-bytes",
        "--session-compact-bytes",
    ])?;
    let mut config = minpower_serve::Config {
        addr: flags.get("--addr").unwrap_or("127.0.0.1:7817").to_string(),
        workers: flags.get_usize("--workers", 2)?,
        queue_depth: flags.get_usize("--queue-depth", 16)?,
        job_time_limit: flags.get_f64("--job-time-limit", 0.0)?,
        ..minpower_serve::Config::default()
    };
    config.max_gates = flags.get_usize("--max-gates", config.max_gates)?;
    config.max_sessions = flags.get_usize("--max-sessions", config.max_sessions)?;
    config.session_ttl = flags.get_f64("--session-ttl", config.session_ttl)?;
    if config.max_sessions == 0 {
        return Err(CliError::Usage(
            "--max-sessions must be at least 1".to_string(),
        ));
    }
    if config.session_ttl < 0.0 || !config.session_ttl.is_finite() {
        return Err(CliError::Usage(
            "--session-ttl must be a finite, non-negative number of seconds (0 disables the sweep)"
                .to_string(),
        ));
    }
    config.ops_rate = flags.get_f64("--ops-rate", config.ops_rate)?;
    config.ops_burst = flags.get_f64("--ops-burst", config.ops_burst)?;
    config.client_rate = flags.get_f64("--client-rate", config.client_rate)?;
    config.client_burst = flags.get_f64("--client-burst", config.client_burst)?;
    for (name, value) in [
        ("--ops-rate", config.ops_rate),
        ("--ops-burst", config.ops_burst),
        ("--client-rate", config.client_rate),
        ("--client-burst", config.client_burst),
    ] {
        if value < 0.0 || !value.is_finite() {
            return Err(CliError::Usage(format!(
                "{name} must be a finite, non-negative number (0 disables the limiter)"
            )));
        }
    }
    config.session_quota_bytes =
        flags.get_u64("--session-quota-bytes", config.session_quota_bytes)?;
    config.session_disk_budget =
        flags.get_u64("--session-disk-budget", config.session_disk_budget)?;
    config.mem_budget_bytes = flags.get_u64("--mem-budget-bytes", config.mem_budget_bytes)?;
    config.session_compact_bytes =
        flags.get_u64("--session-compact-bytes", config.session_compact_bytes)?;
    if let Some(dir) = flags.get("--state-dir") {
        config.state_dir = dir.into();
    }
    config.worker = flags.has("--worker");
    config.shared_dir = flags.get("--shared-dir").map(Into::into);
    if config.shared_dir.is_some() && !config.worker {
        return Err(CliError::Usage(
            "--shared-dir requires --worker".to_string(),
        ));
    }
    if config.workers == 0 {
        return Err(CliError::Usage("--workers must be at least 1".to_string()));
    }
    if config.job_time_limit < 0.0 || !config.job_time_limit.is_finite() {
        return Err(CliError::Usage(
            "--job-time-limit must be a finite, non-negative number of seconds".to_string(),
        ));
    }
    // Fail fast (exit 2) on a state dir that is a file, uncreatable, or
    // not writable — not on the first job's persist attempt.
    minpower_serve::validate_state_dir(&config.state_dir).map_err(CliError::Usage)?;
    let server = minpower_serve::Server::bind(config)
        .map_err(|e| CliError::Other(format!("bind failed: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::Other(format!("local_addr: {e}")))?;
    sigint::install(server.stop_token());
    sigterm::install(server.graceful_token());
    println!("listening on {addr}");
    match server.run() {
        minpower_serve::DrainOutcome::Clean => Ok(()),
        minpower_serve::DrainOutcome::JobsInterrupted => Err(CliError::Interrupted(
            "drained with jobs interrupted (resumable from the state directory)".to_string(),
        )),
    }
}

fn coord(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::new(args);
    flags.reject_unknown(&[
        "--addr",
        "--workers",
        "--state-dir",
        "--lease-ttl",
        "--dispatch-timeout",
        "--connect-timeout",
        "--max-gates",
        "--worker-failure-limit",
        "--retry-budget",
        "--hedge-delay-floor",
        "--job-deadline",
    ])?;
    let workers: Vec<String> = flags
        .get("--workers")
        .map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    if workers.is_empty() {
        return Err(CliError::Usage(
            "--workers requires a comma-separated list of worker endpoints (host:port)".to_string(),
        ));
    }
    let mut config = minpower_coord::Config {
        addr: flags.get("--addr").unwrap_or("127.0.0.1:7818").to_string(),
        workers,
        lease_ttl: flags.get_f64("--lease-ttl", 30.0)?,
        dispatch_timeout: flags.get_f64("--dispatch-timeout", 600.0)?,
        ..minpower_coord::Config::default()
    };
    config.max_gates = flags.get_usize("--max-gates", config.max_gates)?;
    config.worker_failure_limit = flags.get_usize(
        "--worker-failure-limit",
        config.worker_failure_limit as usize,
    )? as u32;
    config.retry_budget = flags.get_usize("--retry-budget", config.retry_budget as usize)? as u32;
    config.connect_timeout = flags.get_f64("--connect-timeout", config.connect_timeout)?;
    config.hedge_delay_floor = flags.get_f64("--hedge-delay-floor", config.hedge_delay_floor)?;
    config.job_deadline = flags.get_f64("--job-deadline", config.job_deadline)?;
    if let Some(dir) = flags.get("--state-dir") {
        config.store_dir = dir.into();
    }
    if !(config.lease_ttl.is_finite() && config.lease_ttl > 0.0) {
        return Err(CliError::Usage(
            "--lease-ttl must be a positive number of seconds".to_string(),
        ));
    }
    if !(config.dispatch_timeout.is_finite() && config.dispatch_timeout > 0.0) {
        return Err(CliError::Usage(
            "--dispatch-timeout must be a positive number of seconds".to_string(),
        ));
    }
    if !(config.connect_timeout.is_finite() && config.connect_timeout > 0.0) {
        return Err(CliError::Usage(
            "--connect-timeout must be a positive number of seconds".to_string(),
        ));
    }
    if !(config.hedge_delay_floor.is_finite() && config.hedge_delay_floor >= 0.0) {
        return Err(CliError::Usage(
            "--hedge-delay-floor must be a finite, non-negative number of seconds".to_string(),
        ));
    }
    if !(config.job_deadline.is_finite() && config.job_deadline >= 0.0) {
        return Err(CliError::Usage(
            "--job-deadline must be a finite, non-negative number of seconds (0 disables)"
                .to_string(),
        ));
    }
    minpower_serve::validate_state_dir(&config.store_dir).map_err(CliError::Usage)?;
    let server = minpower_coord::CoordServer::bind(config)
        .map_err(|e| CliError::Other(format!("bind failed: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::Other(format!("local_addr: {e}")))?;
    sigint::install(server.stop_token());
    // The coordinator's drain already leaves undispatched shards pending
    // and resumable, so SIGTERM and SIGINT share the stop token.
    sigterm::install(server.stop_token());
    println!("coordinating on {addr}");
    match server.run() {
        minpower_serve::DrainOutcome::Clean => Ok(()),
        minpower_serve::DrainOutcome::JobsInterrupted => Err(CliError::Interrupted(
            "drained with jobs interrupted (resumable from the state directory)".to_string(),
        )),
    }
}

fn baseline_cmd(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::new(args);
    flags.reject_unknown(&["--fc", "--activity", "--skew", "--vt"])?;
    let netlist = positional_circuit(&flags)?;
    let problem = build_problem(&netlist, &flags)?;
    let vt = flags.get_f64("--vt", 0.7)?;
    let result =
        baseline::optimize_fixed_vt(&problem, vt, SearchOptions::default()).map_err(map_opt_err)?;
    println!(
        "fixed Vt = {:.0} mV: Vdd = {:.3} V, energy {:.3e} J/cycle, delay {:.3} ns",
        vt * 1e3,
        result.design.vdd,
        result.energy.total(),
        result.critical_delay * 1e9
    );
    print_engine_summary();
    Ok(())
}

fn stats(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::new(args);
    flags.reject_unknown(&[])?;
    let netlist = positional_circuit(&flags)?;
    let s = netlist.stats();
    println!("circuit {}: {s}", netlist.name());
    println!("gate kinds:");
    for (kind, count) in &s.kind_histogram {
        println!("  {kind:<5} {count}");
    }
    println!(
        "max fanin {}, max fanout {}",
        minpower::netlist::transform::max_fanin(&netlist),
        s.max_fanout
    );
    Ok(())
}

fn budget(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::new(args);
    flags.reject_unknown(&["--fc"])?;
    let netlist = positional_circuit(&flags)?;
    let fc = flags.get_f64("--fc", 300.0e6)?;
    let budgets = minpower::opt::budget::assign_max_delays(&netlist, 1.0 / fc);
    println!("per-gate delay budgets at {:.0} MHz:", fc / 1e6);
    let mut rows: Vec<(&str, f64)> = netlist
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| !g.fanin().is_empty())
        .map(|(i, g)| (g.name(), budgets[i]))
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("budgets are finite"));
    for (name, b) in rows {
        println!("  {name:<12} {:.1} ps", b * 1e12);
    }
    println!(
        "worst path budget sum: {:.3} ns (cycle {:.3} ns)",
        minpower::opt::budget::longest_budget_path(&netlist, &budgets) * 1e9,
        1.0 / fc * 1e9
    );
    Ok(())
}

fn convert(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::new(args);
    flags.reject_unknown(&[])?;
    let input = flags
        .positional(0)
        .ok_or_else(|| CliError::Usage("convert needs an input file".to_string()))?
        .to_string();
    let output = flags
        .positional(1)
        .ok_or_else(|| CliError::Usage("convert needs an output file".to_string()))?
        .to_string();
    let netlist = load_circuit(&input)?;
    let text = if output.ends_with(".bench") {
        minpower::netlist::bench::write(&netlist)
    } else if output.ends_with(".v") {
        minpower::netlist::verilog::write(&netlist)
    } else {
        return Err(CliError::Usage(
            "output must end in .bench or .v".to_string(),
        ));
    };
    std::fs::write(&output, text).map_err(|e| CliError::Other(format!("{output}: {e}")))?;
    println!(
        "wrote {} ({} gates, {} inputs, {} outputs)",
        output,
        netlist.logic_gate_count(),
        netlist.inputs().len(),
        netlist.outputs().len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn reject_unknown_accepts_known_and_engine_flags() {
        let a = args(&["s27", "--time-limit", "5", "--threads", "2", "--no-cache"]);
        assert_eq!(Flags::new(&a).reject_unknown(&["--time-limit"]), Ok(()));
    }

    #[test]
    fn reject_unknown_reports_typos_and_removed_flags() {
        // A typo, and the flags that once selected the removed scalar
        // sweep and dense repair paths.
        let removed = ["soa", "incremental"].map(|path| format!("--no-{path}"));
        for flag in std::iter::once("--time-limt").chain(removed.iter().map(String::as_str)) {
            let a = args(&["s27", flag]);
            let err = Flags::new(&a)
                .reject_unknown(&["--time-limit"])
                .expect_err(flag);
            assert_eq!(err, format!("unknown flag `{flag}` (try `minpower help`)"));
            // `?` in a command turns it into the usage error (exit 2).
            assert!(matches!(CliError::from(err), CliError::Usage(_)));
        }
    }
}
