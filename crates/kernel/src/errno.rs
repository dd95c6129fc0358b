//! Errno values used by the simulated kernel.
//!
//! Numbers match Linux x86-64 so that transcripts such as
//! `setegid 65534 failed - setegid (22: Invalid argument)` (paper Figure 3)
//! can be reproduced verbatim.

use std::fmt;

/// Error numbers returned by simulated system calls.
///
/// Only the values that the paper's scenarios can produce are included, plus a
/// few that naturally arise from a POSIX-like VFS (e.g. `ENOTDIR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Errno {
    /// Operation not permitted.
    EPERM,
    /// No such file or directory.
    ENOENT,
    /// No such process.
    ESRCH,
    /// Input/output error.
    EIO,
    /// Bad file descriptor.
    EBADF,
    /// Permission denied.
    EACCES,
    /// File exists.
    EEXIST,
    /// Cross-device link.
    EXDEV,
    /// No such device.
    ENODEV,
    /// Not a directory.
    ENOTDIR,
    /// Is a directory.
    EISDIR,
    /// Invalid argument.
    EINVAL,
    /// Too many open files in system.
    ENFILE,
    /// File too large.
    EFBIG,
    /// No space left on device.
    ENOSPC,
    /// Read-only file system.
    EROFS,
    /// Too many links.
    EMLINK,
    /// Broken pipe.
    EPIPE,
    /// File name too long.
    ENAMETOOLONG,
    /// Function not implemented.
    ENOSYS,
    /// Directory not empty.
    ENOTEMPTY,
    /// Too many symbolic links encountered.
    ELOOP,
    /// Operation not supported.
    EOPNOTSUPP,
    /// Quota exceeded.
    EDQUOT,
    /// No data available (used for missing xattrs).
    ENODATA,
    /// Value too large for defined data type (an ID or size that does not
    /// fit its archive header field).
    EOVERFLOW,
    /// Too many users (used when namespace limits are exhausted).
    EUSERS,
    /// Resource temporarily unavailable.
    EAGAIN,
}

impl Errno {
    /// The numeric value as reported by the Linux kernel on x86-64.
    pub fn code(self) -> i32 {
        match self {
            Errno::EPERM => 1,
            Errno::ENOENT => 2,
            Errno::ESRCH => 3,
            Errno::EIO => 5,
            Errno::EBADF => 9,
            Errno::EAGAIN => 11,
            Errno::EACCES => 13,
            Errno::EEXIST => 17,
            Errno::EXDEV => 18,
            Errno::ENODEV => 19,
            Errno::ENOTDIR => 20,
            Errno::EISDIR => 21,
            Errno::EINVAL => 22,
            Errno::ENFILE => 23,
            Errno::EFBIG => 27,
            Errno::ENOSPC => 28,
            Errno::EROFS => 30,
            Errno::EMLINK => 31,
            Errno::EPIPE => 32,
            Errno::ENAMETOOLONG => 36,
            Errno::ENOSYS => 38,
            Errno::ENOTEMPTY => 39,
            Errno::ELOOP => 40,
            Errno::ENODATA => 61,
            Errno::EOVERFLOW => 75,
            Errno::EUSERS => 87,
            Errno::EOPNOTSUPP => 95,
            Errno::EDQUOT => 122,
        }
    }

    /// The human-readable message, matching `strerror(3)` on glibc.
    pub fn message(self) -> &'static str {
        match self {
            Errno::EPERM => "Operation not permitted",
            Errno::ENOENT => "No such file or directory",
            Errno::ESRCH => "No such process",
            Errno::EIO => "Input/output error",
            Errno::EBADF => "Bad file descriptor",
            Errno::EAGAIN => "Resource temporarily unavailable",
            Errno::EACCES => "Permission denied",
            Errno::EEXIST => "File exists",
            Errno::EXDEV => "Invalid cross-device link",
            Errno::ENODEV => "No such device",
            Errno::ENOTDIR => "Not a directory",
            Errno::EISDIR => "Is a directory",
            Errno::EINVAL => "Invalid argument",
            Errno::ENFILE => "Too many open files in system",
            Errno::EFBIG => "File too large",
            Errno::ENOSPC => "No space left on device",
            Errno::EROFS => "Read-only file system",
            Errno::EMLINK => "Too many links",
            Errno::EPIPE => "Broken pipe",
            Errno::ENAMETOOLONG => "File name too long",
            Errno::ENOSYS => "Function not implemented",
            Errno::ENOTEMPTY => "Directory not empty",
            Errno::ELOOP => "Too many levels of symbolic links",
            Errno::ENODATA => "No data available",
            Errno::EOVERFLOW => "Value too large for defined data type",
            Errno::EUSERS => "Too many users",
            Errno::EOPNOTSUPP => "Operation not supported",
            Errno::EDQUOT => "Disk quota exceeded",
        }
    }

    /// The symbolic name, e.g. `"EPERM"`.
    pub fn name(self) -> &'static str {
        match self {
            Errno::EPERM => "EPERM",
            Errno::ENOENT => "ENOENT",
            Errno::ESRCH => "ESRCH",
            Errno::EIO => "EIO",
            Errno::EBADF => "EBADF",
            Errno::EAGAIN => "EAGAIN",
            Errno::EACCES => "EACCES",
            Errno::EEXIST => "EEXIST",
            Errno::EXDEV => "EXDEV",
            Errno::ENODEV => "ENODEV",
            Errno::ENOTDIR => "ENOTDIR",
            Errno::EISDIR => "EISDIR",
            Errno::EINVAL => "EINVAL",
            Errno::ENFILE => "ENFILE",
            Errno::EFBIG => "EFBIG",
            Errno::ENOSPC => "ENOSPC",
            Errno::EROFS => "EROFS",
            Errno::EMLINK => "EMLINK",
            Errno::EPIPE => "EPIPE",
            Errno::ENAMETOOLONG => "ENAMETOOLONG",
            Errno::ENOSYS => "ENOSYS",
            Errno::ENOTEMPTY => "ENOTEMPTY",
            Errno::ELOOP => "ELOOP",
            Errno::ENODATA => "ENODATA",
            Errno::EOVERFLOW => "EOVERFLOW",
            Errno::EUSERS => "EUSERS",
            Errno::EOPNOTSUPP => "EOPNOTSUPP",
            Errno::EDQUOT => "EDQUOT",
        }
    }

    /// Formats the errno the way tools in the paper's transcripts do,
    /// e.g. `"(1: Operation not permitted)"`.
    pub fn transcript(self) -> String {
        format!("({}: {})", self.code(), self.message())
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.message())
    }
}

impl std::error::Error for Errno {}

/// Result type used throughout the simulated kernel and VFS.
pub type KResult<T> = Result<T, Errno>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_linux() {
        assert_eq!(Errno::EPERM.code(), 1);
        assert_eq!(Errno::ENOENT.code(), 2);
        assert_eq!(Errno::EACCES.code(), 13);
        assert_eq!(Errno::EEXIST.code(), 17);
        assert_eq!(Errno::EINVAL.code(), 22);
        assert_eq!(Errno::ENOSYS.code(), 38);
        assert_eq!(Errno::ENOTEMPTY.code(), 39);
        assert_eq!(Errno::EOVERFLOW.code(), 75);
    }

    #[test]
    fn messages_match_strerror() {
        assert_eq!(Errno::EPERM.message(), "Operation not permitted");
        assert_eq!(Errno::EINVAL.message(), "Invalid argument");
        assert_eq!(Errno::EACCES.message(), "Permission denied");
    }

    #[test]
    fn transcript_format_matches_figure3() {
        // Paper Figure 3: "setgroups (1: Operation not permitted)"
        assert_eq!(Errno::EPERM.transcript(), "(1: Operation not permitted)");
        // Paper Figure 3: "setegid (22: Invalid argument)"
        assert_eq!(Errno::EINVAL.transcript(), "(22: Invalid argument)");
    }

    #[test]
    fn display_includes_name_and_message() {
        let s = format!("{}", Errno::ENOENT);
        assert!(s.contains("ENOENT"));
        assert!(s.contains("No such file or directory"));
    }

    #[test]
    fn errno_is_error_trait() {
        fn takes_err<E: std::error::Error>(_e: E) {}
        takes_err(Errno::EIO);
    }

    #[test]
    fn all_variants_have_distinct_codes() {
        let all = [
            Errno::EPERM,
            Errno::ENOENT,
            Errno::ESRCH,
            Errno::EIO,
            Errno::EBADF,
            Errno::EAGAIN,
            Errno::EACCES,
            Errno::EEXIST,
            Errno::EXDEV,
            Errno::ENODEV,
            Errno::ENOTDIR,
            Errno::EISDIR,
            Errno::EINVAL,
            Errno::ENFILE,
            Errno::EFBIG,
            Errno::ENOSPC,
            Errno::EROFS,
            Errno::EMLINK,
            Errno::EPIPE,
            Errno::ENAMETOOLONG,
            Errno::ENOSYS,
            Errno::ENOTEMPTY,
            Errno::ELOOP,
            Errno::ENODATA,
            Errno::EOVERFLOW,
            Errno::EUSERS,
            Errno::EOPNOTSUPP,
            Errno::EDQUOT,
        ];
        let mut codes: Vec<i32> = all.iter().map(|e| e.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
    }
}
