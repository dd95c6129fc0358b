//! A builder launches its base environment straight from the base tree's
//! entries. That must give exactly what the old composition gave: the tree
//! packed by `Image::from_fs_preserved`, then the matching
//! `Container::launch_type*` on that image. The composition is kept here
//! as the oracle.

use super::*;
use hpcc_distro::BASE_REFERENCES;
use hpcc_vfs::Inode;

const ARCHES: [&str; 3] = ["x86_64", "aarch64", "ppc64le"];

/// Every inode of `fs` by path, root included: inode number, type and
/// payload (bytes, link target, device numbers), mode, owner, link count,
/// xattrs and mtime tick.
fn listing(fs: &Filesystem) -> Vec<(String, Inode)> {
    let mut out = vec![("/".to_string(), fs.inode(fs.root_ino()).unwrap().clone())];
    for (path, ino) in fs.walk() {
        out.push((path, fs.inode(ino).unwrap().clone()));
    }
    out
}

fn assert_same_rootfs(got: &Filesystem, want: &Filesystem, what: &str) {
    let (got, want) = (listing(got), listing(want));
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "{what}");
    }
    assert_eq!(got.len(), want.len(), "{what}: inode count");
}

/// One builder of each kind: Type I; Type II on the VFS driver (subordinate
/// IDs) and on fuse-overlayfs (ID xattrs); Type III.
fn builders() -> Vec<Builder> {
    let alice = Invoker::user("alice", 1000, 1000);
    vec![
        Builder::docker(),
        Builder::rootless_podman(alice.clone(), default_subuid_for("alice")),
        Builder::new(
            BuilderKind::RootlessPodman {
                subuid: default_subuid_for("alice"),
                driver: StorageDriver::FuseOverlayFs,
                backend: FsBackend::LocalDisk,
                sysctl: Sysctl::modern(),
            },
            alice.clone(),
        ),
        Builder::ch_image(alice),
    ]
}

/// The old composition: package the base tree as an image, launch it.
fn launch_packed(builder: &Builder, reference: &str, arch: &str) -> Container {
    let base = base_image(reference, arch).unwrap();
    let root_creds = Credentials::host_root();
    let host_ns = UserNamespace::initial();
    let actor = Actor::new(&root_creds, &host_ns);
    let cfg = ImageConfig {
        architecture: arch.to_string(),
        ..Default::default()
    };
    let image = Image::from_fs_preserved(reference, &base.fs, &actor, cfg).unwrap();
    let container = match &builder.kind {
        BuilderKind::Docker => Container::launch_type1(&image, None),
        BuilderKind::RootlessPodman {
            subuid,
            driver,
            backend,
            sysctl,
        } => Container::launch_type2(&image, &builder.invoker, subuid, *driver, *backend, sysctl),
        BuilderKind::ChImage => Container::launch_type3(&image, &builder.invoker),
    }
    .unwrap();
    if container.privilege == PrivilegeType::TypeII {
        // Type II's cost counts every archived entry and byte, as the
        // storage driver did when it listed the layer before unpacking it.
        let archived = tar::list(&image.layers[0].tar).unwrap();
        let bytes: usize = archived.iter().map(|e| e.content.len()).sum();
        assert_eq!(container.storage_cost.inodes_copied, archived.len());
        assert_eq!(container.storage_cost.bytes_copied, bytes as u64);
    }
    container
}

#[test]
fn tree_launched_base_envs_equal_the_packed_image_launch() {
    for builder in builders() {
        for reference in BASE_REFERENCES {
            for arch in ARCHES {
                let what = format!("{} {reference} {arch}", builder.launch_identity());
                let want = launch_packed(&builder, reference, arch);
                let base = base_image(reference, arch).unwrap();
                let got = builder.launch_base(&base, arch).unwrap();
                assert_eq!(got.privilege, want.privilege, "{what}");
                assert_eq!(got.creds, want.creds, "{what}");
                assert_eq!(
                    format!("{:?}", got.userns),
                    format!("{:?}", want.userns),
                    "{what}"
                );
                assert_eq!(got.arch, want.arch, "{what}");
                assert_eq!(got.storage_cost, want.storage_cost, "{what}");
                assert_eq!(got.rootfs.backend, want.rootfs.backend, "{what}");
                assert_same_rootfs(&got.rootfs, &want.rootfs, &what);
                // The builder's (memoized) base environment is that launch.
                let env = builder.setup_from(reference, arch).unwrap();
                assert_same_rootfs(&env.fs, &want.rootfs, &what);
                assert_eq!(env.creds, want.creds, "{what}");
                assert_eq!(
                    format!("{:?}", env.userns),
                    format!("{:?}", want.userns),
                    "{what}"
                );
            }
        }
    }
}
