//! Wire-format error codes for operation replies.
//!
//! The protocol reports failures as raw POSIX errno numbers — exactly what a
//! FUSE server writes into `fuse_out_header.error` — so any client (a mount,
//! a shell, a network peer) can interpret a reply without linking against the
//! simulated kernel. The mapping to and from [`hpcc_kernel::Errno`] is
//! bidirectional and lossless for every kernel variant; see the
//! `kernel_round_trip_is_total` test, which pins the full table.

use std::fmt;

use hpcc_kernel::Errno as KernelErrno;

/// A POSIX errno as carried in an operation reply.
///
/// The inner value is the Linux x86-64 number (`ENOENT` = 2, `EACCES` = 13,
/// …). Constructed from a kernel error via `From`, or from a raw code
/// received off the wire via [`Errno::from_code`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Errno(i32);

impl Errno {
    /// Operation not permitted.
    pub const EPERM: Errno = Errno(1);
    /// No such file or directory.
    pub const ENOENT: Errno = Errno(2);
    /// Input/output error.
    pub const EIO: Errno = Errno(5);
    /// Bad file descriptor (stale or foreign handle).
    pub const EBADF: Errno = Errno(9);
    /// Resource temporarily unavailable — the typed busy answer an
    /// overload-shedding server gives; retryable by policy.
    pub const EAGAIN: Errno = Errno(11);
    /// Permission denied.
    pub const EACCES: Errno = Errno(13);
    /// File exists.
    pub const EEXIST: Errno = Errno(17);
    /// Cross-device link.
    pub const EXDEV: Errno = Errno(18);
    /// Not a directory.
    pub const ENOTDIR: Errno = Errno(20);
    /// Is a directory.
    pub const EISDIR: Errno = Errno(21);
    /// Invalid argument.
    pub const EINVAL: Errno = Errno(22);
    /// Read-only file system.
    pub const EROFS: Errno = Errno(30);
    /// Function not implemented.
    pub const ENOSYS: Errno = Errno(38);
    /// Directory not empty.
    pub const ENOTEMPTY: Errno = Errno(39);
    /// Too many levels of symbolic links.
    pub const ELOOP: Errno = Errno(40);
    /// No data available (missing xattr).
    pub const ENODATA: Errno = Errno(61);
    /// Operation not supported.
    pub const EOPNOTSUPP: Errno = Errno(95);

    /// Wraps a raw errno number (as received off the wire).
    pub fn from_code(code: i32) -> Errno {
        Errno(code)
    }

    /// The raw errno number.
    pub fn code(self) -> i32 {
        self.0
    }

    /// Maps the wire code back to the simulated kernel's error type, if the
    /// kernel models it. The inverse of `From<KernelErrno>`; total over
    /// every code the kernel can produce.
    pub fn to_kernel(self) -> Option<KernelErrno> {
        use KernelErrno::*;
        Some(match self.0 {
            1 => EPERM,
            2 => ENOENT,
            3 => ESRCH,
            5 => EIO,
            9 => EBADF,
            11 => EAGAIN,
            13 => EACCES,
            17 => EEXIST,
            18 => EXDEV,
            19 => ENODEV,
            20 => ENOTDIR,
            21 => EISDIR,
            22 => EINVAL,
            23 => ENFILE,
            27 => EFBIG,
            28 => ENOSPC,
            30 => EROFS,
            31 => EMLINK,
            32 => EPIPE,
            36 => ENAMETOOLONG,
            38 => ENOSYS,
            39 => ENOTEMPTY,
            40 => ELOOP,
            61 => ENODATA,
            75 => EOVERFLOW,
            87 => EUSERS,
            95 => EOPNOTSUPP,
            122 => EDQUOT,
            _ => return None,
        })
    }

    /// The symbolic name (`"ENOENT"`), or `"E?"` for codes the kernel does
    /// not model.
    pub fn name(self) -> &'static str {
        self.to_kernel().map(|e| e.name()).unwrap_or("E?")
    }

    /// The `strerror(3)` message, or a generic fallback for unknown codes.
    pub fn message(self) -> &'static str {
        self.to_kernel()
            .map(|e| e.message())
            .unwrap_or("Unknown error")
    }
}

impl From<KernelErrno> for Errno {
    fn from(e: KernelErrno) -> Errno {
        Errno(e.code())
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}: {})", self.name(), self.0, self.message())
    }
}

impl std::error::Error for Errno {}

/// Result type of every protocol operation.
pub type OpResult<T> = Result<T, Errno>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel error variant, with the POSIX number a FUSE server would
    /// report for it. The table is exhaustive: adding a kernel variant
    /// without extending [`Errno::to_kernel`] fails the round-trip below.
    const TABLE: &[(KernelErrno, i32, &str)] = &[
        (KernelErrno::EPERM, 1, "EPERM"),
        (KernelErrno::ENOENT, 2, "ENOENT"),
        (KernelErrno::ESRCH, 3, "ESRCH"),
        (KernelErrno::EIO, 5, "EIO"),
        (KernelErrno::EBADF, 9, "EBADF"),
        (KernelErrno::EAGAIN, 11, "EAGAIN"),
        (KernelErrno::EACCES, 13, "EACCES"),
        (KernelErrno::EEXIST, 17, "EEXIST"),
        (KernelErrno::EXDEV, 18, "EXDEV"),
        (KernelErrno::ENODEV, 19, "ENODEV"),
        (KernelErrno::ENOTDIR, 20, "ENOTDIR"),
        (KernelErrno::EISDIR, 21, "EISDIR"),
        (KernelErrno::EINVAL, 22, "EINVAL"),
        (KernelErrno::ENFILE, 23, "ENFILE"),
        (KernelErrno::EFBIG, 27, "EFBIG"),
        (KernelErrno::ENOSPC, 28, "ENOSPC"),
        (KernelErrno::EROFS, 30, "EROFS"),
        (KernelErrno::EMLINK, 31, "EMLINK"),
        (KernelErrno::EPIPE, 32, "EPIPE"),
        (KernelErrno::ENAMETOOLONG, 36, "ENAMETOOLONG"),
        (KernelErrno::ENOSYS, 38, "ENOSYS"),
        (KernelErrno::ENOTEMPTY, 39, "ENOTEMPTY"),
        (KernelErrno::ELOOP, 40, "ELOOP"),
        (KernelErrno::ENODATA, 61, "ENODATA"),
        (KernelErrno::EOVERFLOW, 75, "EOVERFLOW"),
        (KernelErrno::EUSERS, 87, "EUSERS"),
        (KernelErrno::EOPNOTSUPP, 95, "EOPNOTSUPP"),
        (KernelErrno::EDQUOT, 122, "EDQUOT"),
    ];

    #[test]
    fn kernel_round_trip_is_total() {
        for &(kernel, code, name) in TABLE {
            let wire = Errno::from(kernel);
            assert_eq!(wire.code(), code, "{name}: wire code");
            assert_eq!(wire.name(), name, "{name}: symbolic name");
            assert_eq!(wire.to_kernel(), Some(kernel), "{name}: round trip");
            assert_eq!(wire.message(), kernel.message(), "{name}: message");
        }
    }

    #[test]
    fn table_is_exhaustive_over_kernel_variants() {
        // Distinct codes in the table must equal the kernel's variant count;
        // `codes_match_linux` in hpcc-kernel pins the numbers themselves.
        let mut codes: Vec<i32> = TABLE.iter().map(|&(_, c, _)| c).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), TABLE.len());
    }

    #[test]
    fn fuse_reported_codes_match_posix() {
        // The errnos a FUSE server reports for the protocol's core failure
        // modes (ISSUE 5 satellite): exact POSIX numbers.
        assert_eq!(Errno::ENOENT.code(), 2);
        assert_eq!(Errno::EACCES.code(), 13);
        assert_eq!(Errno::ENOTDIR.code(), 20);
        assert_eq!(Errno::EEXIST.code(), 17);
        assert_eq!(Errno::ENOTEMPTY.code(), 39);
        assert_eq!(Errno::EXDEV.code(), 18);
        assert_eq!(Errno::EROFS.code(), 30);
        assert_eq!(Errno::EBADF.code(), 9);
        assert_eq!(Errno::ELOOP.code(), 40);
    }

    #[test]
    fn unknown_codes_survive_without_kernel_mapping() {
        let weird = Errno::from_code(4096);
        assert_eq!(weird.to_kernel(), None);
        assert_eq!(weird.name(), "E?");
        assert_eq!(weird.code(), 4096);
    }
}
