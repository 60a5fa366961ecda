//! Process-level plumbing: the `hf-serve` child process, resident memory
//! from `/proc`, the run's scratch directory and the source stamp.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where a thread may run. With two or more CPUs the load driver gets
/// CPU 0 and the system under test the others, so the driver never
/// takes the server's processor; with one CPU nothing is pinned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cpus {
    Driver,
    System,
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and the threads and processes it
/// starts afterwards, which inherit the mask) to `cpus`.
pub fn pin(cpus: Cpus) {
    let n = crate::Ctx::nproc().min(1024);
    if n < 2 {
        return;
    }
    let mut mask = [0u64; 16]; // a 1024-CPU cpu_set_t
    for cpu in 0..n {
        let on = match cpus {
            Cpus::Driver => cpu == 0,
            Cpus::System => cpu != 0,
        };
        if on {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
    }
    // SAFETY: `mask` is a live, initialised 128-byte buffer, the size
    // passed is its exact size, and pid 0 names the calling thread; the
    // call only reads the buffer.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        eprintln!(
            "perfbench: cannot pin to {cpus:?}: {}",
            std::io::Error::last_os_error()
        );
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// A running `hf-serve` child.
pub struct ServerProcess {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    pub addr: String,
}

impl ServerProcess {
    /// Starts `hf-serve` on an ephemeral port and waits for its
    /// `listening on <addr>` line.
    pub fn spawn(args: &[String]) -> Result<Self, String> {
        let binary = std::env::var("PERFBENCH_HF_SERVE")
            .unwrap_or_else(|_| ".bench_build/release/hf-serve".to_string());
        // The child inherits the system CPUs; the caller stays a driver.
        pin(Cpus::System);
        let child = Command::new(&binary)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        pin(Cpus::Driver);
        let mut child = child.map_err(|e| format!("cannot start {binary}: {e}"))?;
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    addr = line
                        .split("listening on ")
                        .nth(1)
                        .and_then(|rest| rest.split_whitespace().next())
                        .map(str::to_string);
                }
            }
        }
        // Keep draining so reload chatter can never fill the pipe.
        let stdout = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(lines.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        let mut server = Self {
            child,
            stdout: Some(stdout),
            addr: String::new(),
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => {
                server.kill();
                Err("hf-serve exited before listening".to_string())
            }
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to drain and stop, and waits for it; kills it if
    /// it has not exited within a few seconds.
    pub fn stop(mut self) {
        if let Ok(mut client) = hf_net::Client::connect(&self.addr) {
            let _ = client.shutdown_server();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
    }

    fn kill(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(stdout) = self.stdout.take() {
            let _ = stdout.join();
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A stamp of the source tree the benchmark was built from: the git
/// revision when there is one, else an FNV-1a digest of the workspace
/// sources (the benchmark may run from an export with no `.git`).
pub fn source_revision() -> String {
    if let Ok(out) = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
    {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{hash:016x}")
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        if path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
        {
            out.push(path.to_path_buf());
        }
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect(&entry.path(), out);
        }
    }
}
