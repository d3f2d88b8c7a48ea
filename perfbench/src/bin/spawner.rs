//! Runs the benchmark's `hxq` requests, one at a time, for its client.
//!
//! The kernel's peak resident set for a child (`ru_maxrss`) starts from
//! the high-water mark of the process image it replaced at `exec`, which
//! is its spawner's. The benchmark process holds inputs, expected answers
//! and traced replays, so its mark can exceed a small `hxq` run's peak. This process
//! holds almost nothing, so the peaks it reports are `hxq`'s own. It also
//! waits for each child in a blocking `wait4`, so nothing polls the child
//! while it runs.
//!
//! Protocol: each request is one line on stdin with NUL-separated fields:
//! program, stdout path, stderr path, then the program's arguments. Each
//! reply is one line on stdout, `ok STATUS LATENCY_NS MAXRSS_KB MINFLT`
//! (STATUS is the raw wait status) or `err MESSAGE`. The process ends at
//! the end of its input.

use std::ffi::{c_int, c_long};
use std::fs::File;
use std::io::{BufRead, Write};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

fn main() {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let reply = match line.map_err(|e| e.to_string()).and_then(|l| run(&l)) {
            Ok(r) => format!(
                "ok {} {} {} {}",
                r.status, r.latency_ns, r.maxrss_kb, r.minflt
            ),
            Err(e) => format!("err {}", e.replace('\n', " ")),
        };
        if writeln!(out, "{reply}").and_then(|()| out.flush()).is_err() {
            return;
        }
    }
}

struct Reply {
    status: c_int,
    latency_ns: u128,
    maxrss_kb: c_long,
    minflt: c_long,
}

/// Run one request: spawn, wait, and time it from spawn to exit.
fn run(line: &str) -> Result<Reply, String> {
    let mut fields = line.split('\0');
    let mut next = |what: &str| fields.next().ok_or(format!("request without {what}"));
    let program = next("a program")?;
    let create = |p: &str| File::create(p).map_err(|e| format!("{p}: {e}"));
    let stdout = create(next("a stdout path")?)?;
    let stderr = create(next("a stderr path")?)?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(fields)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("{program}: {e}"))?;
    let (status, usage) =
        wait_for_exit(child).map_err(|e| format!("waiting for {program}: {e}"))?;
    Ok(Reply {
        status,
        latency_ns: start.elapsed().as_nanos(),
        maxrss_kb: usage.maxrss,
        minflt: usage.minflt,
    })
}

/// `struct rusage` on 64-bit Linux: two `timeval`s (two `long`s each), then
/// fourteen `long`s, from `ru_maxrss` (in kB) to `ru_nivcsw`.
#[repr(C)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    rest: [c_long; 9],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// Block until `child` exits and reap it; returns its raw wait status and
/// its resource usage.
fn wait_for_exit(child: Child) -> std::io::Result<(c_int, Rusage)> {
    let pid = c_int::try_from(child.id()).map_err(std::io::Error::other)?;
    let mut status: c_int = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        ixrss: 0,
        idrss: 0,
        isrss: 0,
        minflt: 0,
        rest: [0; 9],
    };
    loop {
        // SAFETY: `status` and `usage` are live and writable for the call,
        // and `Rusage` has the layout of the platform's `struct rusage`.
        // `pid` is `child`, which nothing else waits for: the handle is
        // dropped here unwaited.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            return Ok((status, usage));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_status_and_usage_come_from_the_reaped_child() {
        let child = Command::new("sh").args(["-c", "exit 3"]).spawn().unwrap();
        let (status, usage) = wait_for_exit(child).unwrap();
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(std::process::ExitStatus::from_raw(status).code(), Some(3));
        assert!(usage.maxrss > 0 && usage.minflt > 0);
    }

    #[test]
    fn a_request_line_names_program_outputs_and_arguments() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("work/spawner-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("out.txt");
        let err = dir.join("err.txt");
        let line = format!("echo\0{}\0{}\0a b\0c", out.display(), err.display());
        let reply = run(&line).unwrap();
        assert_eq!(reply.status, 0);
        assert!(reply.latency_ns > 0 && reply.maxrss_kb > 0);
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "a b c\n");
        assert!(run("echo").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
