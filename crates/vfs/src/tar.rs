//! A ustar-format tar archiver for image trees.
//!
//! The paper notes that images are often stored in tar archives and that,
//! with privileged ID maps, correct IDs require the archive to be created
//! within the container or from an ID source other than the filesystem
//! (§2.1.2). Charliecloud's push path changes ownership to `root:root` and
//! clears setuid/setgid bits (§6.1); §6.2.2 suggests exporting ownership from
//! the fakeroot database instead. All three policies are implemented here.
//!
//! One entry model ([`TarEntryRef`]) has two sources and two sinks. The
//! sources are an encoded archive ([`entries`]) and a live tree ([`tree`]),
//! which yields exactly the entries [`pack_into`] would encode. The sinks are
//! the ustar encoder ([`pack_into`] is "walk, then encode") and one installer
//! ([`install`]; [`unpack`] is "decode, then install"). Installing a tree
//! therefore gives pack-then-unpack's result without building, hashing or
//! parsing an archive, and regular files share the source inode's bytes.

use std::collections::BTreeMap;

use hpcc_kernel::{Errno, Gid, KResult, Uid};

use crate::actor::Actor;
use crate::bytes::FileBytes;
use crate::fs::Filesystem;
use crate::inode::InodeData;
use crate::mode::{FileType, Mode};

const BLOCK: usize = 512;
const ZEROES: [u8; BLOCK] = [0u8; BLOCK];

/// How ownership is recorded when packing an archive.
#[derive(Debug, Clone, Default)]
pub enum OwnershipPolicy {
    /// Record the filesystem's host-side IDs verbatim (what a naive
    /// outside-the-container `tar(1)` does; paper §2.1.2 warns these are the
    /// "mostly-arbitrary host side of the map").
    #[default]
    Filesystem,
    /// Record the IDs as seen through a user namespace map (archive created
    /// "within the container").
    NamespaceView,
    /// Flatten everything to `root:root` and clear setuid/setgid — the
    /// Charliecloud push behaviour (paper §6.1).
    FlattenRoot,
    /// Use an external ownership database (path -> (uid, gid)), e.g. the
    /// fakeroot lie database (paper §6.2.2 item 2). Paths not present fall
    /// back to `root:root`.
    External(BTreeMap<String, (u32, u32)>),
}

/// Options controlling archive creation.
#[derive(Debug, Clone, Default)]
pub struct PackOptions {
    /// Ownership policy.
    pub ownership: OwnershipPolicy,
    /// Skip device nodes (Type III images cannot contain them anyway).
    pub skip_devices: bool,
    /// Clear setuid/setgid bits regardless of policy.
    pub clear_setid: bool,
}

impl PackOptions {
    /// Every entry kept, setid bits kept, ownership as seen through the
    /// packing actor's user namespace: what a Docker or Podman push
    /// records, and what a base image is launched from.
    pub fn namespace_view() -> Self {
        PackOptions {
            ownership: OwnershipPolicy::NamespaceView,
            skip_devices: false,
            clear_setid: false,
        }
    }
}

/// A single entry parsed from (or destined for) a tar archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TarEntry {
    /// Path, relative, without a leading slash.
    pub path: String,
    /// Entry type.
    pub file_type: FileType,
    /// Permission bits.
    pub mode: Mode,
    /// Recorded owner UID.
    pub uid: u32,
    /// Recorded owner GID.
    pub gid: u32,
    /// File contents (empty for non-regular entries).
    pub content: Vec<u8>,
    /// Symlink target.
    pub link_target: String,
    /// Device numbers.
    pub dev: Option<(u32, u32)>,
}

/// Writes `value` as zero-padded octal digits with a trailing NUL — the old
/// `format!("{:0width$o}")` allocated a `String` per field, eight fields per
/// entry, on the layer-packing hot path. A value with more digits than the
/// field holds (a uid, gid or device number above 2,097,151, a size of
/// 8 GiB or more) is `EOVERFLOW`, never a field with its high digits cut.
fn octal_field(buf: &mut [u8], value: u64) -> KResult<()> {
    let n = buf.len() - 1;
    if value >> (3 * n) != 0 {
        return Err(Errno::EOVERFLOW);
    }
    buf[n] = 0;
    let mut v = value;
    for slot in buf[..n].iter_mut().rev() {
        *slot = b'0' + (v & 7) as u8;
        v >>= 3;
    }
    Ok(())
}

/// Parses an octal header field in place (no intermediate `String`).
fn parse_octal(field: &[u8]) -> u64 {
    let mut out = 0u64;
    let mut seen_digit = false;
    for &b in field {
        match b {
            0 => break,
            b' ' if !seen_digit => {}
            b'0'..=b'7' => {
                seen_digit = true;
                out = (out << 3) | (b - b'0') as u64;
            }
            _ => break,
        }
    }
    out
}

fn type_flag(ft: FileType) -> u8 {
    match ft {
        FileType::Regular => b'0',
        FileType::Symlink => b'2',
        FileType::CharDevice => b'3',
        FileType::BlockDevice => b'4',
        FileType::Directory => b'5',
        FileType::Fifo => b'6',
        FileType::Socket => b'0',
    }
}

fn flag_type(flag: u8) -> FileType {
    match flag {
        b'2' => FileType::Symlink,
        b'3' => FileType::CharDevice,
        b'4' => FileType::BlockDevice,
        b'5' => FileType::Directory,
        b'6' => FileType::Fifo,
        _ => FileType::Regular,
    }
}

fn io_err(_: std::io::Error) -> Errno {
    Errno::EIO
}

/// Encodes one entry: header, then content and padding. Content is written
/// straight from its source, so encoding never copies file bytes.
///
/// The ustar field widths are this encoder's limits alone: names and link
/// targets over 100 bytes fail with `ENAMETOOLONG` here, and numbers too
/// big for their octal fields with `EOVERFLOW`, while [`install`] takes
/// them from a [`tree`] as they are.
fn write_entry<W: std::io::Write>(e: &TarEntryRef<'_>, out: &mut W) -> KResult<()> {
    let mut hdr = [0u8; BLOCK];
    // Name written in place — no `String` is built per entry.
    let is_dir = e.file_type == FileType::Directory;
    let name_len = e.path.len() + usize::from(is_dir);
    if name_len > 100 {
        return Err(Errno::ENAMETOOLONG);
    }
    hdr[..e.path.len()].copy_from_slice(e.path.as_bytes());
    if is_dir {
        hdr[e.path.len()] = b'/';
    }
    let content = e.content.as_slice();
    octal_field(&mut hdr[100..108], e.mode.bits() as u64)?;
    octal_field(&mut hdr[108..116], e.uid as u64)?;
    octal_field(&mut hdr[116..124], e.gid as u64)?;
    let size = if e.file_type == FileType::Regular {
        content.len() as u64
    } else {
        0
    };
    octal_field(&mut hdr[124..136], size)?;
    octal_field(&mut hdr[136..148], 0)?; // mtime
    hdr[156] = type_flag(e.file_type);
    if e.file_type == FileType::Symlink {
        let t = e.link_target.as_bytes();
        if t.len() > 100 {
            return Err(Errno::ENAMETOOLONG);
        }
        hdr[157..157 + t.len()].copy_from_slice(t);
    }
    hdr[257..262].copy_from_slice(b"ustar");
    hdr[263..265].copy_from_slice(b"00");
    if let Some((maj, min)) = e.dev {
        octal_field(&mut hdr[329..337], maj as u64)?;
        octal_field(&mut hdr[337..345], min as u64)?;
    }
    // Checksum: spaces during computation.
    for b in &mut hdr[148..156] {
        *b = b' ';
    }
    let sum: u64 = hdr.iter().map(|&b| b as u64).sum();
    // Rendered as six octal digits, NUL, space (max possible sum fits).
    let mut v = sum;
    for slot in hdr[148..154].iter_mut().rev() {
        *slot = b'0' + (v & 7) as u8;
        v >>= 3;
    }
    hdr[154] = 0;
    hdr[155] = b' ';
    out.write_all(&hdr).map_err(io_err)?;
    if e.file_type == FileType::Regular && !content.is_empty() {
        out.write_all(content).map_err(io_err)?;
        let pad = (BLOCK - content.len() % BLOCK) % BLOCK;
        out.write_all(&ZEROES[..pad]).map_err(io_err)?;
    }
    Ok(())
}

/// Packs the subtree rooted at `root_path` into `out` as a ustar stream:
/// the entries of [`tree`], encoded.
///
/// Bytes are produced incrementally — header, content, padding per entry —
/// so a digesting writer (e.g. `hpcc_image::Sha256Writer` behind a tee)
/// hashes the layer while it is serialized, and file contents are written
/// straight from the filesystem's copy-on-write buffers without cloning.
pub fn pack_into<W: std::io::Write>(
    fs: &Filesystem,
    actor: &Actor,
    root_path: &str,
    options: &PackOptions,
    out: &mut W,
) -> KResult<()> {
    tree(fs, actor, root_path, options).for_each_entry(&mut |e| write_entry(&e, out))?;
    // Two zero blocks terminate the archive.
    out.write_all(&ZEROES).map_err(io_err)?;
    out.write_all(&ZEROES).map_err(io_err)?;
    Ok(())
}

/// Packs the subtree rooted at `root_path` into a ustar archive in memory.
pub fn pack(
    fs: &Filesystem,
    actor: &Actor,
    root_path: &str,
    options: &PackOptions,
) -> KResult<Vec<u8>> {
    let mut out = Vec::new();
    pack_into(fs, actor, root_path, options, &mut out)?;
    Ok(out)
}

/// An upper bound on the size of any archive [`pack_into`] writes from
/// `fs`: a header for every name of every inode, each file's bytes padded
/// to a block, and the two terminator blocks. One pass over the inode
/// table; lets a caller size its output buffer once.
pub fn packed_size_bound(fs: &Filesystem) -> usize {
    let mut bound = 2 * BLOCK;
    fs.for_each_inode(|inode| {
        bound += match &inode.data {
            InodeData::Directory { .. } => BLOCK,
            // Every hard link is packed as a file of its own.
            InodeData::Regular { content } => {
                inode.nlink.max(1) as usize * (2 * BLOCK - 1 + content.len())
            }
            _ => inode.nlink.max(1) as usize * BLOCK,
        };
    });
    bound
}

/// The bytes of a regular-file entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryContent<'a> {
    /// Borrowed from an archive buffer; installing it copies the bytes once.
    Borrowed(&'a [u8]),
    /// The source inode's own buffer (a [`tree`] entry); installing it
    /// shares the buffer instead of copying it.
    Shared(&'a FileBytes),
}

impl<'a> EntryContent<'a> {
    /// The bytes.
    pub fn as_slice(&self) -> &'a [u8] {
        match *self {
            EntryContent::Borrowed(bytes) => bytes,
            EntryContent::Shared(bytes) => bytes.as_slice(),
        }
    }

    fn to_file_bytes(self) -> FileBytes {
        match self {
            EntryContent::Borrowed(bytes) => FileBytes::from(bytes),
            EntryContent::Shared(bytes) => bytes.clone(),
        }
    }
}

const NO_CONTENT: EntryContent<'static> = EntryContent::Borrowed(&[]);

/// One entry *borrowed* from its source: header fields plus content. Nothing
/// is copied — [`entries`] parses a whole archive without materializing any
/// entry body, and [`tree`] lends each inode's own buffer, which is what
/// lets [`install`] fill a filesystem with at most one copy of the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TarEntryRef<'a> {
    /// Path, relative, without a leading slash or trailing `/`.
    pub path: &'a str,
    /// Entry type.
    pub file_type: FileType,
    /// Permission bits.
    pub mode: Mode,
    /// Recorded owner UID.
    pub uid: u32,
    /// Recorded owner GID.
    pub gid: u32,
    /// File contents (empty for non-regular entries).
    pub content: EntryContent<'a>,
    /// Symlink target.
    pub link_target: &'a str,
    /// Device numbers.
    pub dev: Option<(u32, u32)>,
}

impl TarEntryRef<'_> {
    /// Copies the borrowed entry into an owned [`TarEntry`].
    pub fn to_owned_entry(&self) -> TarEntry {
        TarEntry {
            path: self.path.to_string(),
            file_type: self.file_type,
            mode: self.mode,
            uid: self.uid,
            gid: self.gid,
            content: self.content.as_slice().to_vec(),
            link_target: self.link_target.to_string(),
            dev: self.dev,
        }
    }
}

/// Where entries come from, in archive order: an encoded archive (`[u8]`,
/// decoded by [`entries`]) or a live [`Tree`]. Both sinks take any source:
/// [`install`] directly, and the encoder through [`pack_into`].
pub trait EntrySource {
    /// Calls `f` on every entry in order, stopping at the first error.
    fn for_each_entry(&self, f: &mut dyn FnMut(TarEntryRef<'_>) -> KResult<()>) -> KResult<()>;
}

impl EntrySource for [u8] {
    fn for_each_entry(&self, f: &mut dyn FnMut(TarEntryRef<'_>) -> KResult<()>) -> KResult<()> {
        entries(self).try_for_each(|e| f(e?))
    }
}

/// The subtree of a live filesystem as an [`EntrySource`]; see [`tree`].
#[derive(Debug, Clone, Copy)]
pub struct Tree<'a> {
    fs: &'a Filesystem,
    actor: &'a Actor<'a>,
    root_path: &'a str,
    options: &'a PackOptions,
}

/// The subtree rooted at `root_path` of `fs` as an entry source. It yields
/// exactly the entries [`pack_into`] encodes with the same arguments, and in
/// the same order: `options` decides ownership, setid bits and whether
/// device nodes appear, and a socket is yielded as the empty regular file
/// that ustar records. Regular files lend their inode's buffer.
///
/// Only the encoder's field widths differ: a name or link target over 100
/// bytes is yielded as it is, while [`pack_into`] fails on it.
pub fn tree<'a>(
    fs: &'a Filesystem,
    actor: &'a Actor<'a>,
    root_path: &'a str,
    options: &'a PackOptions,
) -> Tree<'a> {
    Tree {
        fs,
        actor,
        root_path,
        options,
    }
}

/// `path` relative to the subtree rooted at `prefix` (both absolute and
/// normalized); `None` outside the subtree and at its root.
fn subtree_relative<'p>(path: &'p str, prefix: &str) -> Option<&'p str> {
    let rest = path.strip_prefix(prefix)?;
    let rel = if prefix == "/" {
        rest
    } else {
        rest.strip_prefix('/')?
    };
    (!rel.is_empty()).then_some(rel)
}

impl EntrySource for Tree<'_> {
    fn for_each_entry(&self, f: &mut dyn FnMut(TarEntryRef<'_>) -> KResult<()>) -> KResult<()> {
        let options = self.options;
        let prefix = format!(
            "/{}",
            crate::path::PathComponents::parse(self.root_path)
                .as_slice()
                .join("/")
        );
        for (path, ino) in self.fs.walk() {
            let Some(rel) = subtree_relative(&path, &prefix) else {
                continue;
            };
            let inode = self.fs.inode(ino)?;
            let ft = inode.file_type();
            if ft.is_device() && options.skip_devices {
                continue;
            }
            let (uid, gid) = match &options.ownership {
                OwnershipPolicy::Filesystem => (inode.uid.0, inode.gid.0),
                OwnershipPolicy::NamespaceView => (
                    self.actor.userns.display_uid(inode.uid).0,
                    self.actor.userns.display_gid(inode.gid).0,
                ),
                OwnershipPolicy::FlattenRoot => (0, 0),
                OwnershipPolicy::External(db) => db.get(rel).copied().unwrap_or((0, 0)),
            };
            let mut mode = inode.mode;
            if options.clear_setid || matches!(options.ownership, OwnershipPolicy::FlattenRoot) {
                mode = mode.without_setid();
            }
            let (content, link_target) = match &inode.data {
                InodeData::Regular { content } => (EntryContent::Shared(content), ""),
                InodeData::Symlink { target } => (NO_CONTENT, target.as_str()),
                _ => (NO_CONTENT, ""),
            };
            f(TarEntryRef {
                path: rel,
                // The type the archive records.
                file_type: flag_type(type_flag(ft)),
                mode,
                uid,
                gid,
                content,
                link_target,
                dev: inode.rdev(),
            })?;
        }
        Ok(())
    }
}

/// Streaming archive parser: yields borrowed entries in order.
#[derive(Debug, Clone)]
pub struct TarIter<'a> {
    archive: &'a [u8],
    off: usize,
    done: bool,
}

fn header_str(field: &[u8]) -> KResult<&str> {
    let end = field.iter().position(|&b| b == 0).unwrap_or(field.len());
    std::str::from_utf8(&field[..end]).map_err(|_| Errno::EINVAL)
}

impl<'a> Iterator for TarIter<'a> {
    type Item = KResult<TarEntryRef<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done || self.off + BLOCK > self.archive.len() {
            return None;
        }
        let hdr = &self.archive[self.off..self.off + BLOCK];
        if hdr.iter().all(|&b| b == 0) {
            self.done = true;
            return None;
        }
        let name = match header_str(&hdr[..100]) {
            Ok(n) => n,
            Err(e) => {
                self.done = true;
                return Some(Err(e));
            }
        };
        let link_target = match header_str(&hdr[157..257]) {
            Ok(t) => t,
            Err(e) => {
                self.done = true;
                return Some(Err(e));
            }
        };
        let mode = Mode::new(parse_octal(&hdr[100..108]) as u16);
        let uid = parse_octal(&hdr[108..116]) as u32;
        let gid = parse_octal(&hdr[116..124]) as u32;
        let size = parse_octal(&hdr[124..136]) as usize;
        let ft = flag_type(hdr[156]);
        let maj = parse_octal(&hdr[329..337]) as u32;
        let min = parse_octal(&hdr[337..345]) as u32;
        self.off += BLOCK;
        let content: &[u8] = if ft == FileType::Regular && size > 0 {
            if self.off + size > self.archive.len() {
                self.done = true;
                return Some(Err(Errno::EINVAL));
            }
            &self.archive[self.off..self.off + size]
        } else {
            &[]
        };
        if ft == FileType::Regular {
            self.off += size + (BLOCK - size % BLOCK) % BLOCK;
        }
        Some(Ok(TarEntryRef {
            path: name.trim_end_matches('/'),
            file_type: ft,
            mode,
            uid,
            gid,
            content: EntryContent::Borrowed(content),
            link_target,
            dev: if ft.is_device() {
                Some((maj, min))
            } else {
                None
            },
        }))
    }
}

/// Parses an archive lazily into borrowed entries (no content copies).
pub fn entries(archive: &[u8]) -> TarIter<'_> {
    TarIter {
        archive,
        off: 0,
        done: false,
    }
}

/// Parses a ustar archive into owned entries. Prefer [`entries`] on hot
/// paths — this form copies every entry body.
pub fn list(archive: &[u8]) -> KResult<Vec<TarEntry>> {
    entries(archive)
        .map(|e| e.map(|r| r.to_owned_entry()))
        .collect()
}

/// Options controlling unpack behaviour.
#[derive(Debug, Clone, Default)]
pub struct UnpackOptions {
    /// Change all ownership to this `uid:gid` regardless of what the archive
    /// records (what a Type III puller does: "change ownership to themselves
    /// anyway, like tar(1)", paper §5.2).
    pub force_owner: Option<(Uid, Gid)>,
    /// Skip device nodes instead of failing.
    pub skip_devices: bool,
}

/// The inode payload of a device, FIFO or socket entry.
fn special_data(file_type: FileType, dev: Option<(u32, u32)>) -> InodeData {
    let (major, minor) = dev.unwrap_or((0, 0));
    match file_type {
        FileType::CharDevice => InodeData::CharDevice { major, minor },
        FileType::BlockDevice => InodeData::BlockDevice { major, minor },
        FileType::Fifo => InodeData::Fifo,
        _ => InodeData::Socket,
    }
}

/// What one [`install`] saw and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstallStats {
    /// Entries the source yielded, skipped device nodes included.
    pub entries: usize,
    /// Entries installed.
    pub installed: usize,
    /// Regular-file bytes the source yielded.
    pub bytes: u64,
}

/// Installs every entry of `source` into `fs` under `dest`, without DAC
/// permission checks (the caller owns the destination tree). This is the
/// one installer: [`unpack`] feeds it a decoded archive, and a launch from a
/// live tree feeds it [`tree`] entries. Each entry becomes an inode of its
/// own type: a symlink always gets mode 0777, and device nodes are skipped
/// when `options.skip_devices` is set.
pub fn install(
    fs: &mut Filesystem,
    source: &(impl EntrySource + ?Sized),
    dest: &str,
    options: &UnpackOptions,
) -> KResult<InstallStats> {
    let mut stats = InstallStats::default();
    let mut path = String::with_capacity(dest.len() + 64);
    source.for_each_entry(&mut |e| {
        stats.entries += 1;
        stats.bytes += e.content.as_slice().len() as u64;
        let (uid, gid) = match options.force_owner {
            Some((u, g)) => (u, g),
            None => (Uid(e.uid), Gid(e.gid)),
        };
        // One reused scratch string instead of a fresh allocation per entry.
        path.clear();
        path.push_str(dest);
        path.push('/');
        path.push_str(e.path);
        let (fs, path) = (&mut *fs, path.as_str());
        match e.file_type {
            FileType::Directory => fs.install_dir(path, uid, gid, e.mode),
            FileType::Regular => fs.install_file(path, e.content.to_file_bytes(), uid, gid, e.mode),
            FileType::Symlink => fs.install_symlink(path, e.link_target, uid, gid),
            FileType::CharDevice | FileType::BlockDevice if options.skip_devices => return Ok(()),
            special => fs.install_special(path, special_data(special, e.dev), uid, gid, e.mode),
        }?;
        stats.installed += 1;
        Ok(())
    })?;
    Ok(stats)
}

/// Unpacks an archive into `fs` under `dest`: the archive's entries, decoded
/// and [`install`]ed. Returns the number of entries installed.
pub fn unpack(
    fs: &mut Filesystem,
    archive: &[u8],
    dest: &str,
    options: &UnpackOptions,
) -> KResult<usize> {
    install(fs, archive, dest, options).map(|stats| stats.installed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_kernel::{Credentials, UserNamespace};

    fn sample_fs() -> Filesystem {
        let mut fs = Filesystem::new_local();
        fs.install_file(
            "/image/bin/sh",
            b"#!elf".to_vec(),
            Uid(0),
            Gid(0),
            Mode::EXEC_755,
        )
        .unwrap();
        fs.install_file(
            "/image/usr/bin/passwd",
            b"elf".to_vec(),
            Uid(0),
            Gid(0),
            Mode::new(0o4755),
        )
        .unwrap();
        fs.install_file(
            "/image/var/empty/sshd/.keep",
            b"".to_vec(),
            Uid(74),
            Gid(74),
            Mode::FILE_644,
        )
        .unwrap();
        fs.install_symlink("/image/bin/bash", "sh", Uid(0), Gid(0))
            .unwrap();
        fs
    }

    fn root_actor_parts() -> (Credentials, UserNamespace) {
        (Credentials::host_root(), UserNamespace::initial())
    }

    #[test]
    fn pack_list_roundtrip_preserves_metadata() {
        let fs = sample_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(&fs, &actor, "/image", &PackOptions::default()).unwrap();
        assert_eq!(archive.len() % BLOCK, 0);
        let entries = list(&archive).unwrap();
        let passwd = entries.iter().find(|e| e.path == "usr/bin/passwd").unwrap();
        assert!(passwd.mode.is_setuid());
        assert_eq!(passwd.content, b"elf");
        let sshd = entries
            .iter()
            .find(|e| e.path == "var/empty/sshd/.keep")
            .unwrap();
        assert_eq!((sshd.uid, sshd.gid), (74, 74));
        let link = entries.iter().find(|e| e.path == "bin/bash").unwrap();
        assert_eq!(link.file_type, FileType::Symlink);
        assert_eq!(link.link_target, "sh");
    }

    #[test]
    fn flatten_policy_strips_ids_and_setid() {
        let fs = sample_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(
            &fs,
            &actor,
            "/image",
            &PackOptions {
                ownership: OwnershipPolicy::FlattenRoot,
                ..Default::default()
            },
        )
        .unwrap();
        for e in list(&archive).unwrap() {
            assert_eq!((e.uid, e.gid), (0, 0));
            assert!(!e.mode.is_setuid(), "{} still setuid", e.path);
        }
    }

    #[test]
    fn namespace_view_policy_uses_container_ids() {
        // Files owned by subordinate host UID 200073 should be recorded as
        // container UID 74 when packing "from inside" a Type II namespace.
        let mut fs = Filesystem::new_local();
        fs.install_file(
            "/image/f",
            b"x".to_vec(),
            Uid(200_073),
            Gid(200_073),
            Mode::FILE_644,
        )
        .unwrap();
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
        let ns = UserNamespace::type2(Uid(1000), Gid(1000), 200_000, 65_536);
        let actor = Actor::new(&creds, &ns);
        let archive = pack(
            &fs,
            &actor,
            "/image",
            &PackOptions {
                ownership: OwnershipPolicy::NamespaceView,
                ..Default::default()
            },
        )
        .unwrap();
        let entries = list(&archive).unwrap();
        assert_eq!((entries[0].uid, entries[0].gid), (74, 74));
    }

    #[test]
    fn external_policy_reads_database() {
        let fs = sample_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let mut db = BTreeMap::new();
        db.insert("bin/sh".to_string(), (0u32, 0u32));
        db.insert("var/empty/sshd/.keep".to_string(), (74u32, 74u32));
        let archive = pack(
            &fs,
            &actor,
            "/image",
            &PackOptions {
                ownership: OwnershipPolicy::External(db),
                ..Default::default()
            },
        )
        .unwrap();
        let entries = list(&archive).unwrap();
        let sshd = entries
            .iter()
            .find(|e| e.path == "var/empty/sshd/.keep")
            .unwrap();
        assert_eq!((sshd.uid, sshd.gid), (74, 74));
    }

    #[test]
    fn unpack_with_forced_owner_changes_everything() {
        let fs = sample_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(&fs, &actor, "/image", &PackOptions::default()).unwrap();
        let mut dst = Filesystem::new_local();
        let count = unpack(
            &mut dst,
            &archive,
            "/home/alice/img",
            &UnpackOptions {
                force_owner: Some((Uid(1000), Gid(1000))),
                skip_devices: true,
            },
        )
        .unwrap();
        assert!(count >= 4);
        for (path, ino) in dst.walk() {
            if path.starts_with("/home/alice/img/") {
                assert_eq!(dst.inode(ino).unwrap().uid, Uid(1000), "{}", path);
            }
        }
        assert_eq!(
            dst.read_file(&actor, "/home/alice/img/bin/sh").unwrap(),
            b"#!elf"
        );
    }

    #[test]
    fn unpack_preserves_recorded_owners_by_default() {
        let fs = sample_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(&fs, &actor, "/image", &PackOptions::default()).unwrap();
        let mut dst = Filesystem::new_local();
        unpack(&mut dst, &archive, "/img", &UnpackOptions::default()).unwrap();
        let st = dst.stat(&actor, "/img/var/empty/sshd/.keep").unwrap();
        assert_eq!(st.uid_host, Uid(74));
    }

    #[test]
    fn archive_is_block_aligned_and_terminated() {
        let fs = sample_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(&fs, &actor, "/image", &PackOptions::default()).unwrap();
        assert_eq!(archive.len() % BLOCK, 0);
        assert!(archive[archive.len() - BLOCK..].iter().all(|&b| b == 0));
        // ustar magic present in first header.
        assert_eq!(&archive[257..262], b"ustar");
    }

    /// Every inode of `fs` by path, root included: inode number, payload
    /// (bytes, link target, device numbers), owner, mode, link count,
    /// xattrs and mtime tick.
    fn listing(fs: &Filesystem) -> Vec<(String, crate::inode::Inode)> {
        let mut out = vec![("/".to_string(), fs.inode(fs.root_ino()).unwrap().clone())];
        for (path, ino) in fs.walk() {
            out.push((path, fs.inode(ino).unwrap().clone()));
        }
        out
    }

    fn special_fs() -> Filesystem {
        let mut fs = sample_fs();
        fs.install_special(
            "/image/dev/sda",
            InodeData::BlockDevice { major: 8, minor: 0 },
            Uid(0),
            Gid(6),
            Mode::new(0o660),
        )
        .unwrap();
        fs.install_char_device("/image/dev/null", 1, 3, Uid(0), Gid(0), Mode::new(0o666))
            .unwrap();
        fs.install_special(
            "/image/run/initctl",
            InodeData::Fifo,
            Uid(0),
            Gid(0),
            Mode::new(0o600),
        )
        .unwrap();
        fs
    }

    #[test]
    fn unpack_installs_a_fifo_as_a_fifo() {
        let fs = special_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(&fs, &actor, "/image", &PackOptions::default()).unwrap();
        let mut dst = Filesystem::new_local();
        unpack(&mut dst, &archive, "/img", &UnpackOptions::default()).unwrap();
        let st = dst.lstat(&actor, "/img/run/initctl").unwrap();
        assert_eq!(st.file_type, FileType::Fifo);
        assert_eq!(st.mode, Mode::new(0o600));
        assert_eq!((st.size, st.rdev), (0, None));
    }

    #[test]
    fn unpack_installs_a_block_device_as_a_block_device() {
        let fs = special_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(&fs, &actor, "/image", &PackOptions::default()).unwrap();
        let mut dst = Filesystem::new_local();
        unpack(&mut dst, &archive, "/img", &UnpackOptions::default()).unwrap();
        let sda = dst.lstat(&actor, "/img/dev/sda").unwrap();
        assert_eq!(sda.file_type, FileType::BlockDevice);
        assert_eq!((sda.rdev, sda.gid_host), (Some((8, 0)), Gid(6)));
        let null = dst.lstat(&actor, "/img/dev/null").unwrap();
        assert_eq!(
            (null.file_type, null.rdev),
            (FileType::CharDevice, Some((1, 3)))
        );
        // Skipping devices skips both kinds, and only them.
        let mut skipped = Filesystem::new_local();
        let options = UnpackOptions {
            skip_devices: true,
            ..Default::default()
        };
        unpack(&mut skipped, &archive, "/img", &options).unwrap();
        assert!(!skipped.exists(&actor, "/img/dev/sda"));
        assert!(!skipped.exists(&actor, "/img/dev/null"));
        assert!(skipped.exists(&actor, "/img/run/initctl"));
    }

    #[test]
    fn tree_entries_are_the_entries_pack_encodes() {
        let mut fs = special_fs();
        fs.install_special(
            "/image/run/sock",
            InodeData::Socket,
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        for options in [
            PackOptions::default(),
            PackOptions::namespace_view(),
            PackOptions {
                ownership: OwnershipPolicy::FlattenRoot,
                skip_devices: true,
                clear_setid: true,
            },
        ] {
            let archive = pack(&fs, &actor, "/image", &options).unwrap();
            let mut walked = Vec::new();
            tree(&fs, &actor, "/image", &options)
                .for_each_entry(&mut |e| {
                    walked.push(e.to_owned_entry());
                    Ok(())
                })
                .unwrap();
            assert_eq!(walked, list(&archive).unwrap(), "{options:?}");
        }
    }

    #[test]
    fn installing_a_tree_matches_pack_then_unpack_and_shares_bytes() {
        let fs = special_fs();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let pack_options = PackOptions::namespace_view();
        let options = UnpackOptions {
            force_owner: Some((Uid(1000), Gid(1000))),
            skip_devices: true,
        };
        let archive = pack(&fs, &actor, "/image", &pack_options).unwrap();
        let mut unpacked = Filesystem::new_local();
        unpack(&mut unpacked, &archive, "/img", &options).unwrap();
        let mut installed = Filesystem::new_local();
        let entries = tree(&fs, &actor, "/image", &pack_options);
        let stats = install(&mut installed, &entries, "/img", &options).unwrap();
        assert_eq!(listing(&installed), listing(&unpacked));
        // Two device nodes were seen and skipped.
        assert_eq!(stats.entries, stats.installed + 2);
        assert_eq!(stats.bytes, fs.total_file_bytes());
        // No file bytes were copied: the launched tree shares the source's.
        let src = fs.file_bytes(&actor, "/image/bin/sh").unwrap();
        let dst = installed.file_bytes(&actor, "/img/bin/sh").unwrap();
        assert!(dst.shares_buffer_with(&src));
    }

    /// ustar stores a name in 100 bytes, so a longer name is a limit of the
    /// encoder, not of the entry model: `pack` refuses it with
    /// `ENAMETOOLONG`, while installing the same tree directly, with no
    /// archive in between, installs the name as it is. This is the one
    /// place the two paths differ.
    #[test]
    fn names_over_100_bytes_fail_to_encode_but_install_from_a_tree() {
        let long = format!("/image/{}/{}", "d".repeat(60), "f".repeat(60));
        let mut fs = Filesystem::new_local();
        fs.install_file(&long, b"x".to_vec(), Uid(0), Gid(0), Mode::FILE_644)
            .unwrap();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let options = PackOptions::default();
        assert_eq!(
            pack(&fs, &actor, "/image", &options).unwrap_err(),
            Errno::ENAMETOOLONG
        );
        let mut dst = Filesystem::new_local();
        let entries = tree(&fs, &actor, "/image", &options);
        install(&mut dst, &entries, "/img", &UnpackOptions::default()).unwrap();
        let path = long.replacen("/image", "/img", 1);
        assert_eq!(dst.read_file(&actor, &path).unwrap(), b"x");
    }

    /// ustar's 7-digit ID and device fields stop at 2,097,151 and its
    /// 11-digit size field below 8 GiB; a bigger value fails the pack with
    /// `EOVERFLOW` rather than losing its high digits, while installing the
    /// tree directly keeps the full ID.
    #[test]
    fn numbers_too_big_for_their_fields_fail_to_encode() {
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let options = PackOptions::default();
        for (uid, gid) in [(2_097_152, 0), (0, 2_097_152), (u32::MAX, 0), (0, u32::MAX)] {
            let mut fs = Filesystem::new_local();
            fs.install_file(
                "/image/f",
                b"x".to_vec(),
                Uid(uid),
                Gid(gid),
                Mode::FILE_644,
            )
            .unwrap();
            assert_eq!(
                pack(&fs, &actor, "/image", &options).unwrap_err(),
                Errno::EOVERFLOW,
                "uid {uid} gid {gid}"
            );
            let mut dst = Filesystem::new_local();
            let entries = tree(&fs, &actor, "/image", &options);
            install(&mut dst, &entries, "/img", &UnpackOptions::default()).unwrap();
            let st = dst.lstat(&actor, "/img/f").unwrap();
            assert_eq!((st.uid_host, st.gid_host), (Uid(uid), Gid(gid)));
        }

        // The largest values that fit still round-trip.
        let mut fs = Filesystem::new_local();
        fs.install_file(
            "/image/f",
            b"x".to_vec(),
            Uid(2_097_151),
            Gid(2_097_151),
            Mode::FILE_644,
        )
        .unwrap();
        let archive = pack(&fs, &actor, "/image", &options).unwrap();
        let e = list(&archive).unwrap().into_iter().find(|e| e.path == "f");
        assert_eq!(e.map(|e| (e.uid, e.gid)), Some((2_097_151, 2_097_151)));

        let mut fs = Filesystem::new_local();
        let dev = InodeData::CharDevice {
            major: 1 << 21,
            minor: 3,
        };
        fs.install_special("/image/d", dev, Uid(0), Gid(0), Mode::FILE_644)
            .unwrap();
        assert_eq!(
            pack(&fs, &actor, "/image", &options).unwrap_err(),
            Errno::EOVERFLOW
        );

        let mut size = [0u8; 12];
        assert_eq!(octal_field(&mut size, 8 << 30), Err(Errno::EOVERFLOW));
        octal_field(&mut size, (8 << 30) - 1).unwrap();
        assert_eq!(&size, b"77777777777\0");
    }

    #[test]
    fn packing_a_subtree_leaves_out_siblings_sharing_its_prefix() {
        let mut fs = sample_fs();
        fs.install_file(
            "/imagex/stray",
            b"no".to_vec(),
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(&fs, &actor, "/image", &PackOptions::default()).unwrap();
        let paths: Vec<String> = list(&archive)
            .unwrap()
            .into_iter()
            .map(|e| e.path)
            .collect();
        assert!(paths.contains(&"bin/sh".to_string()));
        assert!(paths.iter().all(|p| !p.contains("stray")), "{paths:?}");
    }

    #[test]
    fn packed_size_bound_covers_the_archive_and_hard_links() {
        let mut fs = special_fs();
        fs.install_file(
            "/image/big",
            vec![7u8; 1500],
            Uid(0),
            Gid(0),
            Mode::FILE_644,
        )
        .unwrap();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        fs.link(&actor, "/image/big", "/image/big2").unwrap();
        let archive = pack(&fs, &actor, "/", &PackOptions::default()).unwrap();
        let bound = packed_size_bound(&fs);
        assert!(archive.len() <= bound, "{} > {}", archive.len(), bound);
        // Tight to within a block per inode plus a block of padding per file.
        assert!(bound - archive.len() <= 2 * BLOCK * (fs.inode_count() + 1));
    }

    #[test]
    fn empty_tree_produces_only_terminator() {
        let fs = Filesystem::new_local();
        let (c, n) = root_actor_parts();
        let actor = Actor::new(&c, &n);
        let archive = pack(&fs, &actor, "/", &PackOptions::default()).unwrap();
        assert_eq!(archive.len(), BLOCK * 2);
        assert!(list(&archive).unwrap().is_empty());
    }
}
