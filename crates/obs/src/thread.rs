//! The one door through which the kernel and the transport start a
//! thread.
//!
//! §3: a node runs a *fixed* complement of processors, and its only
//! other processes are an object's detached behaviors (§4.2). Every
//! thread the kernel and the transport start comes through [`spawn`],
//! which names it `eden-<role>-<tag>` from a closed set of [`Role`]s.
//! Flight-recorder dumps, leak hunts and the benchmark's thread census
//! read those names, so a thread cannot go unnamed or pick a name of
//! its own. Each crate that starts such threads lists `std::thread::spawn`
//! and `std::thread::Builder::spawn` under `disallowed-methods` in its
//! `clippy.toml`; this module holds the one permitted call.

use std::fmt::Display;
use std::io;
use std::thread::JoinHandle;

/// What a kernel or transport thread is for. The role fixes the
/// thread's name prefix, `eden-<role>`.
#[derive(Debug, Clone, Copy)]
pub enum Role {
    /// A virtual processor of the node's pool: tag `<node>-<i>`, or
    /// `<node>-s<n>` for the n-th spare.
    Vproc,
    /// One of a node's receive threads: tag `<node>-<i>`.
    Recv,
    /// A node's stall watchdog: tag `<node>`.
    Watchdog,
    /// An object's detached behavior: tag is the behavior's label.
    Behavior,
    /// The loopback mesh's delay-line pump: no tag.
    MeshDelay,
    /// A TCP endpoint's accept loop: tag `<node>`.
    TcpAccept,
    /// One of a TCP endpoint's fixed pool of readers: tag `<node>-<i>`.
    TcpReader,
    /// A TCP endpoint's writer to one peer: tag `<node>-<peer>`.
    TcpWriter,
}

impl Role {
    /// The role's name prefix. Each fits within Linux's 15-byte thread
    /// `comm`, so a census that reads `comm` sees the whole prefix.
    fn prefix(self) -> &'static str {
        match self {
            Role::Vproc => "eden-vproc",
            Role::Recv => "eden-recv",
            Role::Watchdog => "eden-watchdog",
            Role::Behavior => "eden-behavior",
            Role::MeshDelay => "eden-mesh-delay",
            Role::TcpAccept => "eden-tcp-accept",
            Role::TcpReader => "eden-tcp-rdr",
            Role::TcpWriter => "eden-tcp-write",
        }
    }

    /// The name of this role's thread for `tag`: `<prefix>-<tag>`, or
    /// the bare prefix when `tag` is empty.
    pub fn thread_name(self, tag: impl Display) -> String {
        let tag = tag.to_string();
        if tag.is_empty() {
            self.prefix().to_string()
        } else {
            format!("{}-{tag}", self.prefix())
        }
    }
}

/// Starts a thread named [`role.thread_name(tag)`](Role::thread_name)
/// that runs `body`.
#[expect(
    clippy::disallowed_methods,
    reason = "the one place a kernel or transport thread is started"
)]
pub fn spawn<F, T>(role: Role, tag: impl Display, body: F) -> io::Result<JoinHandle<T>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new()
        .name(role.thread_name(tag))
        .spawn(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each role with a sample tag, and the name its threads carry.
    const NAMES: [(Role, &str, &str); 9] = [
        (Role::Vproc, "N1-0", "eden-vproc-N1-0"),
        (Role::Vproc, "N1-s3", "eden-vproc-N1-s3"),
        (Role::Recv, "N2-1", "eden-recv-N2-1"),
        (Role::Watchdog, "N2", "eden-watchdog-N2"),
        (Role::Behavior, "ticker", "eden-behavior-ticker"),
        (Role::MeshDelay, "", "eden-mesh-delay"),
        (Role::TcpAccept, "N0", "eden-tcp-accept-N0"),
        (Role::TcpReader, "N0-3", "eden-tcp-rdr-N0-3"),
        (Role::TcpWriter, "N0-N1", "eden-tcp-write-N0-N1"),
    ];

    #[test]
    fn each_role_names_its_threads_as_before() {
        for (role, tag, name) in NAMES {
            assert_eq!(role.thread_name(tag), name);
        }
    }

    #[test]
    fn each_prefix_fits_the_kernel_comm_field() {
        // `comm` holds 15 bytes plus the terminating NUL; the census
        // groups threads by what follows `eden-` in it.
        for (role, ..) in NAMES {
            assert!(role.prefix().len() <= 15, "{role:?}");
        }
    }

    #[test]
    fn spawned_threads_carry_the_role_name() {
        let handle = spawn(Role::Recv, format_args!("N{}-{}", 7, 1), || {
            std::thread::current().name().map(str::to_string)
        })
        .expect("spawn");
        assert_eq!(handle.join().unwrap().as_deref(), Some("eden-recv-N7-1"));
    }
}
