fn main() -> std::process::ExitCode {
    madclock::cli::main()
}
