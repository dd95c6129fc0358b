//! OCI-like images: layers, configuration, and manifests.
//!
//! Charliecloud pushes single-layer, ownership-flattened images while Podman
//! and Docker push multi-layer images preserving IDs (paper §6.1); both paths
//! are supported.

use std::collections::BTreeMap;

use hpcc_kernel::{Gid, KResult, Uid};
use hpcc_vfs::{tar, Actor, FileBytes, Filesystem};

use crate::sha256::{sha256, Digest, Sha256};

/// A buffer that digests everything appended to it, so serializers hash
/// layer bytes as they are produced instead of in a second pass.
#[derive(Debug)]
struct DigestingBuf {
    buf: Vec<u8>,
    hasher: Sha256,
}

impl DigestingBuf {
    fn with_capacity(capacity: usize) -> Self {
        DigestingBuf {
            buf: Vec::with_capacity(capacity),
            hasher: Sha256::new(),
        }
    }

    fn into_parts(self) -> (FileBytes, Digest) {
        (FileBytes::new(self.buf), self.hasher.finalize())
    }
}

impl std::io::Write for DigestingBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.hasher.update(data);
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One image layer: a tar archive plus its digest.
///
/// The tar bytes live behind a [`FileBytes`] handle: cloning a layer,
/// storing it in a registry, or pulling it back shares one buffer instead of
/// copying the archive — layer bytes are materialized exactly once, when the
/// tar stream is serialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Content digest of the tar bytes.
    pub digest: Digest,
    /// The tar archive (shared, copy-on-write).
    pub tar: FileBytes,
}

impl Layer {
    /// Creates a layer from tar bytes; a `FileBytes` handle is adopted
    /// without copying.
    pub fn from_tar(tar: impl Into<FileBytes>) -> Self {
        let tar = tar.into();
        Layer {
            digest: sha256(&tar),
            tar,
        }
    }

    /// Serializes the subtree at `root` of `fs` into a layer, hashing the
    /// tar stream while it is produced (single pass over the bytes). The
    /// buffer is sized once, from [`tar::packed_size_bound`], instead of
    /// growing by doubling.
    pub fn pack_from_fs(
        fs: &Filesystem,
        actor: &Actor,
        root: &str,
        options: &tar::PackOptions,
    ) -> KResult<Self> {
        let mut out = DigestingBuf::with_capacity(tar::packed_size_bound(fs));
        tar::pack_into(fs, actor, root, options, &mut out)?;
        let (tar, digest) = out.into_parts();
        Ok(Layer { digest, tar })
    }

    /// Size in bytes.
    pub fn size(&self) -> usize {
        self.tar.len()
    }
}

/// An image's entries are its layers' entries, base layer first: installing
/// an image unpacks each layer over the one below.
impl tar::EntrySource for Image {
    fn for_each_entry(
        &self,
        f: &mut dyn FnMut(tar::TarEntryRef<'_>) -> KResult<()>,
    ) -> KResult<()> {
        self.layers
            .iter()
            .try_for_each(|layer| tar::EntrySource::for_each_entry(layer.tar.as_slice(), f))
    }
}

/// Image runtime configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImageConfig {
    /// Environment variables.
    pub env: BTreeMap<String, String>,
    /// Entry point.
    pub entrypoint: Vec<String>,
    /// Default command.
    pub cmd: Vec<String>,
    /// Working directory.
    pub workdir: String,
    /// Labels.
    pub labels: BTreeMap<String, String>,
    /// Target architecture (e.g. `x86_64`, `aarch64`).
    pub architecture: String,
}

impl ImageConfig {
    /// Renders the config as a canonical JSON-ish document for digesting.
    pub fn canonical(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"architecture\":\"{}\",", self.architecture));
        out.push_str(&format!("\"workdir\":\"{}\",", self.workdir));
        out.push_str("\"env\":{");
        for (k, v) in &self.env {
            out.push_str(&format!("\"{}\":\"{}\",", k, v));
        }
        out.push_str("},\"labels\":{");
        for (k, v) in &self.labels {
            out.push_str(&format!("\"{}\":\"{}\",", k, v));
        }
        out.push_str("},\"entrypoint\":[");
        for e in &self.entrypoint {
            out.push_str(&format!("\"{}\",", e));
        }
        out.push_str("],\"cmd\":[");
        for c in &self.cmd {
            out.push_str(&format!("\"{}\",", c));
        }
        out.push_str("]}");
        out
    }
}

/// How ownership was recorded in the image's layers — the property the paper
/// proposes marking explicitly in the OCI spec (§6.2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnershipMode {
    /// Multiple UIDs/GIDs preserved (Docker / rootless Podman push).
    Preserved,
    /// Flattened to `root:root` with setuid/setgid cleared (Charliecloud
    /// push, Singularity SIF).
    Flattened,
}

/// A complete image: config plus ordered layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Repository reference (e.g. `registry.example.com/atse/app:1.2`).
    pub reference: String,
    /// Runtime configuration.
    pub config: ImageConfig,
    /// Layers, base first.
    pub layers: Vec<Layer>,
    /// How ownership is recorded.
    pub ownership: OwnershipMode,
}

impl Image {
    /// The manifest digest: hash of the config plus all layer digests.
    pub fn manifest_digest(&self) -> Digest {
        let mut doc = self.config.canonical();
        for l in &self.layers {
            doc.push_str(&l.digest.to_oci_string());
        }
        sha256(doc.as_bytes())
    }

    /// Renders an OCI-style manifest document.
    pub fn render_manifest(&self) -> String {
        let mut out = String::from("{\n  \"schemaVersion\": 2,\n  \"layers\": [\n");
        for l in &self.layers {
            out.push_str(&format!(
                "    {{ \"digest\": \"{}\", \"size\": {} }},\n",
                l.digest,
                l.tar.len()
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"architecture\": \"{}\",\n  \"ownership\": \"{}\"\n}}\n",
            self.config.architecture,
            match self.ownership {
                OwnershipMode::Preserved => "preserved",
                OwnershipMode::Flattened => "flattened",
            }
        ));
        out
    }

    /// Total compressed (well, tar) size of all layers.
    pub fn total_size(&self) -> usize {
        self.layers.iter().map(|l| l.size()).sum()
    }

    /// Builds a **single-layer, ownership-flattened** image from a filesystem
    /// tree — the Charliecloud push path (paper §6.1): all files become
    /// `root:root`, setuid/setgid bits are cleared.
    pub fn from_fs_flattened(
        reference: &str,
        fs: &Filesystem,
        actor: &Actor,
        config: ImageConfig,
    ) -> KResult<Self> {
        let layer = Layer::pack_from_fs(
            fs,
            actor,
            "/",
            &tar::PackOptions {
                ownership: tar::OwnershipPolicy::FlattenRoot,
                skip_devices: true,
                clear_setid: true,
            },
        )?;
        Ok(Image {
            reference: reference.to_string(),
            config,
            layers: vec![layer],
            ownership: OwnershipMode::Flattened,
        })
    }

    /// Builds a single-layer image preserving the **namespace view** of
    /// ownership (what a Type II build pushes: container IDs, not host
    /// subordinate IDs).
    pub fn from_fs_preserved(
        reference: &str,
        fs: &Filesystem,
        actor: &Actor,
        config: ImageConfig,
    ) -> KResult<Self> {
        let layer = Layer::pack_from_fs(fs, actor, "/", &tar::PackOptions::namespace_view())?;
        Ok(Image {
            reference: reference.to_string(),
            config,
            layers: vec![layer],
            ownership: OwnershipMode::Preserved,
        })
    }

    /// Builds an image whose ownership comes from an external database (the
    /// fakeroot lie database), per the paper's §6.2.2 recommendation 2.
    pub fn from_fs_with_ownership_db(
        reference: &str,
        fs: &Filesystem,
        actor: &Actor,
        config: ImageConfig,
        db: BTreeMap<String, (u32, u32)>,
    ) -> KResult<Self> {
        let layer = Layer::pack_from_fs(
            fs,
            actor,
            "/",
            &tar::PackOptions {
                ownership: tar::OwnershipPolicy::External(db),
                skip_devices: true,
                clear_setid: false,
            },
        )?;
        Ok(Image {
            reference: reference.to_string(),
            config,
            layers: vec![layer],
            ownership: OwnershipMode::Preserved,
        })
    }

    /// Unpacks all layers into a fresh filesystem. `force_owner` rewrites all
    /// ownership to the given user — what a Type III puller does (paper §5.2).
    pub fn unpack(&self, force_owner: Option<(Uid, Gid)>) -> KResult<Filesystem> {
        let mut fs = Filesystem::new_local();
        tar::install(
            &mut fs,
            self,
            "/",
            &tar::UnpackOptions {
                force_owner,
                skip_devices: true,
            },
        )?;
        Ok(fs)
    }

    /// Counts distinct owner UIDs recorded across all layers.
    pub fn distinct_recorded_uids(&self) -> usize {
        let mut uids = Vec::new();
        for l in &self.layers {
            if let Ok(entries) = tar::list(&l.tar) {
                for e in entries {
                    if !uids.contains(&e.uid) {
                        uids.push(e.uid);
                    }
                }
            }
        }
        uids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_kernel::{Credentials, UserNamespace};
    use hpcc_vfs::Mode;

    fn sample_fs() -> Filesystem {
        let mut fs = Filesystem::new_local();
        fs.install_file("/bin/app", b"elf".to_vec(), Uid(0), Gid(0), Mode::EXEC_755)
            .unwrap();
        fs.install_file(
            "/usr/bin/passwd",
            b"elf".to_vec(),
            Uid(0),
            Gid(0),
            Mode::new(0o4755),
        )
        .unwrap();
        fs.install_file(
            "/var/empty/sshd/.keep",
            b"".to_vec(),
            Uid(74),
            Gid(74),
            Mode::FILE_644,
        )
        .unwrap();
        fs
    }

    fn root_actor() -> (Credentials, UserNamespace) {
        (Credentials::host_root(), UserNamespace::initial())
    }

    #[test]
    fn flattened_image_has_one_uid_and_no_setuid() {
        let fs = sample_fs();
        let (c, n) = root_actor();
        let actor = Actor::new(&c, &n);
        let img =
            Image::from_fs_flattened("example/app:1", &fs, &actor, ImageConfig::default()).unwrap();
        assert_eq!(img.ownership, OwnershipMode::Flattened);
        assert_eq!(img.distinct_recorded_uids(), 1);
        let entries = tar::list(&img.layers[0].tar).unwrap();
        assert!(entries.iter().all(|e| !e.mode.is_setuid()));
    }

    #[test]
    fn preserved_image_keeps_multiple_uids() {
        let fs = sample_fs();
        let (c, n) = root_actor();
        let actor = Actor::new(&c, &n);
        let img =
            Image::from_fs_preserved("example/app:1", &fs, &actor, ImageConfig::default()).unwrap();
        assert!(img.distinct_recorded_uids() > 1);
    }

    #[test]
    fn ownership_db_image_restores_ids_from_lies() {
        let fs = sample_fs();
        let (c, n) = root_actor();
        let actor = Actor::new(&c, &n);
        let mut db = BTreeMap::new();
        db.insert("var/empty/sshd/.keep".to_string(), (74u32, 74u32));
        let img =
            Image::from_fs_with_ownership_db("x", &fs, &actor, ImageConfig::default(), db).unwrap();
        let entries = tar::list(&img.layers[0].tar).unwrap();
        let e = entries
            .iter()
            .find(|e| e.path == "var/empty/sshd/.keep")
            .unwrap();
        assert_eq!((e.uid, e.gid), (74, 74));
    }

    #[test]
    fn unpack_with_forced_owner() {
        let fs = sample_fs();
        let (c, n) = root_actor();
        let actor = Actor::new(&c, &n);
        let img = Image::from_fs_preserved("x", &fs, &actor, ImageConfig::default()).unwrap();
        let unpacked = img.unpack(Some((Uid(1000), Gid(1000)))).unwrap();
        for (path, ino) in unpacked.walk() {
            assert_eq!(unpacked.inode(ino).unwrap().uid, Uid(1000), "{}", path);
        }
    }

    #[test]
    fn manifest_digest_changes_with_content() {
        let fs = sample_fs();
        let (c, n) = root_actor();
        let actor = Actor::new(&c, &n);
        let a = Image::from_fs_flattened("x", &fs, &actor, ImageConfig::default()).unwrap();
        let mut fs2 = sample_fs();
        fs2.install_file("/etc/extra", b"y".to_vec(), Uid(0), Gid(0), Mode::FILE_644)
            .unwrap();
        let b = Image::from_fs_flattened("x", &fs2, &actor, ImageConfig::default()).unwrap();
        assert_ne!(a.manifest_digest(), b.manifest_digest());
    }

    #[test]
    fn manifest_rendering_mentions_layers_and_ownership() {
        let fs = sample_fs();
        let (c, n) = root_actor();
        let actor = Actor::new(&c, &n);
        let img = Image::from_fs_flattened("x", &fs, &actor, ImageConfig::default()).unwrap();
        let m = img.render_manifest();
        assert!(m.contains("sha256:"));
        assert!(m.contains("\"ownership\": \"flattened\""));
    }

    #[test]
    fn config_canonicalization_is_deterministic() {
        let mut cfg = ImageConfig::default();
        cfg.env.insert("PATH".into(), "/usr/bin".into());
        cfg.architecture = "aarch64".into();
        assert_eq!(cfg.canonical(), cfg.canonical());
        assert!(cfg.canonical().contains("aarch64"));
    }
}
