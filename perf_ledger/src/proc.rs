//! Process hygiene: where the benchmark keeps its files, how it builds and
//! starts the `taser-serve` child, and the guards that make sure no child
//! and no temp dir outlives a run — panic included.

use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything the benchmark writes lives under the cargo target directory
/// it was built into (`.bench_build` under the driver), so a run never
/// touches a path outside its checkout.
pub fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    // <target>/release/perf_ledger
    exe.parent()
        .and_then(Path::parent)
        .expect("executable sits in <target>/<profile>/")
        .to_path_buf()
}

pub fn out_dir() -> PathBuf {
    let dir = target_dir().join("perf_ledger");
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir
}

/// The root workspace's manifest: this package sits one level below it.
const ROOT_MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");

/// Builds the program under test from source — `cargo build --release -p
/// taser-serve` in the root workspace, into this benchmark's own target
/// dir — and returns the binary's path. A no-op after the first run.
pub fn build_server() -> Result<PathBuf, String> {
    let target = target_dir();
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "taser-serve",
        ])
        .args(["--bin", "taser-serve", "--manifest-path", ROOT_MANIFEST])
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p taser-serve failed ({status})"));
    }
    let bin = target.join("release").join("taser-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after build", bin.display()))
    }
}

/// A scratch directory removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = target_dir().join("perf_ledger_tmp").join(format!(
            "{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A port that was free a moment ago. Another process can still take it
/// before the child binds, which is why [`Server::start`] retries.
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind an ephemeral port")
        .port()
}

/// Runs `taser-serve <args>` to completion (the `train` subcommand).
pub fn run_to_completion(bin: &Path, args: &[String]) -> Result<(), String> {
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "taser-serve {} failed: {}",
            args.first().map_or("", String::as_str),
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

/// Every live child, so the per-workload timeout in `main` can kill what a
/// hung workload thread still owns.
static LIVE: Mutex<Vec<Arc<Mutex<Child>>>> = Mutex::new(Vec::new());

fn kill_and_reap(child: &Mutex<Child>) {
    // a poisoned lock still guards a valid Child: killing it is always safe
    let mut child = child.lock().unwrap_or_else(|p| p.into_inner());
    let _ = child.kill();
    let _ = child.wait();
}

pub fn kill_all_children() {
    let live = std::mem::take(&mut *LIVE.lock().unwrap_or_else(|p| p.into_inner()));
    live.iter().for_each(|c| kill_and_reap(c));
}

/// A running `taser-serve run --tcp` child, killed (SIGKILL) and reaped on
/// drop so a panicking workload cannot leak it.
pub struct Server {
    child: Arc<Mutex<Child>>,
    pid: u32,
    pub addr: String,
    /// `--repl-listen` address when the node was started as a primary.
    pub repl_addr: Option<String>,
}

impl Server {
    /// Starts the child with `args` plus `--tcp` on a free port (and
    /// `--repl-listen` on another when `primary`), then waits until it
    /// accepts connections. A child that dies while booting — typically a
    /// lost race for the port — is retried on fresh ports.
    pub fn start(bin: &Path, args: &[String], primary: bool, log: &Path) -> Result<Self, String> {
        let mut last = String::new();
        for _attempt in 0..3 {
            let addr = format!("127.0.0.1:{}", free_port());
            let repl_addr = primary.then(|| format!("127.0.0.1:{}", free_port()));
            let stderr = std::fs::File::create(log).map_err(|e| format!("create log: {e}"))?;
            let mut cmd = Command::new(bin);
            cmd.arg("run").args(args).args(["--tcp", &addr]);
            if let Some(r) = &repl_addr {
                cmd.args(["--repl-listen", r]);
            }
            let child = cmd
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(stderr)
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            let pid = child.id();
            let child = Arc::new(Mutex::new(child));
            LIVE.lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(child.clone());
            let server = Server {
                child,
                pid,
                addr,
                repl_addr,
            };
            match server.wait_listening(Duration::from_secs(30)) {
                Ok(()) => return Ok(server),
                Err(e) => {
                    let tail = std::fs::read_to_string(log).unwrap_or_default();
                    last = format!("{e}; child said: {}", tail.trim());
                }
            }
        }
        Err(format!("server did not come up: {last}"))
    }

    fn wait_listening(&self, budget: Duration) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            if TcpStream::connect(&self.addr).is_ok() {
                return Ok(());
            }
            let exited = self
                .child
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .try_wait();
            if let Ok(Some(status)) = exited {
                return Err(format!("child exited while booting ({status})"));
            }
            if t0.elapsed() > budget {
                return Err("timed out waiting for the listener".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set of the child so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid))
    }

    /// Sends `signal` (`STOP`, `CONT`) with the system's `kill`.
    pub fn signal(&self, signal: &str) -> Result<(), String> {
        let status = Command::new("kill")
            .args([&format!("-{signal}"), &self.pid.to_string()])
            .status()
            .map_err(|e| format!("run kill: {e}"))?;
        status
            .success()
            .then_some(())
            .ok_or_else(|| format!("kill -{signal} {} failed", self.pid))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        kill_and_reap(&self.child);
        LIVE.lock()
            .unwrap_or_else(|p| p.into_inner())
            .retain(|c| !Arc::ptr_eq(c, &self.child));
    }
}

/// Peak RSS of this process, in MB (in-process workloads).
pub fn own_peak_rss_mb() -> Option<f64> {
    peak_rss_mb("/proc/self/status")
}

fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    parse_vm_hwm_kb(&text).map(|kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(own_peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed() {
        let (a, b) = (TempDir::new("t"), TempDir::new("t"));
        assert_ne!(a.join(""), b.join(""));
        let kept = a.join("f");
        std::fs::write(&kept, b"x").unwrap();
        drop(a);
        assert!(!kept.exists() && !kept.parent().unwrap().exists());
        assert!(b.join("").is_dir());
    }
}
