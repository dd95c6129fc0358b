//! Seeded inputs of the three workloads. The program under test only ever
//! sees what these functions generate.

use hpcc_core::{centos7_dockerfile, debian10_dockerfile};
use hpcc_kernel::{Gid, Uid};
use hpcc_vfs::{FileBytes, Filesystem, Mode};

use crate::stats::{ContentHash, Rng};

/// The workloads, by the name the command line takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig 10 and Fig 11 Dockerfiles, verbatim.
    PaperForce,
    /// A seeded ~50 MiB build context copied into a CentOS 7 image.
    BulkImage,
    /// Four tenants submitting seeded edits to a build farm.
    TenantEdits,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperForce,
        Workload::BulkImage,
        Workload::TenantEdits,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperForce => "paper_force",
            Workload::BulkImage => "bulk_image",
            Workload::TenantEdits => "tenant_edits",
        }
    }

    /// Untimed rounds set-up runs, so caches fill and lazy set-up finishes
    /// before timing. A `bulk_image` round is ~100 times longer than the
    /// others' and fills its caches alone.
    pub fn warmup_rounds(self) -> usize {
        match self {
            Workload::BulkImage => 1,
            _ => 20,
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is what the command runs; the benchmark's
/// own tests use [`Scale::small`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Files in the bulk build context.
    pub bulk_files: usize,
    /// Every this-many-th bulk file is [`Scale::bulk_big_bytes`] long.
    pub bulk_big_every: usize,
    /// Size of a big bulk file.
    pub bulk_big_bytes: usize,
    /// Size range of the other bulk files.
    pub bulk_small_bytes: (usize, usize),
    /// Context directories the bulk files sit in.
    pub bulk_dirs: usize,
    /// Files per bulk `COPY` instruction.
    pub bulk_copy_group: usize,
    /// Whole-tree walks of each published image per round.
    pub walks_per_round: usize,
    /// The same for `bulk_image`, whose walks are ~40 times longer.
    pub bulk_walks_per_round: usize,
    /// Times set-up is repeated; its median is `setup_s`.
    pub setups: usize,
}

impl Scale {
    /// Walks per image per round for `workload`.
    pub fn walks(&self, workload: Workload) -> usize {
        match workload {
            Workload::BulkImage => self.bulk_walks_per_round,
            _ => self.walks_per_round,
        }
    }

    /// The measured size.
    pub fn full() -> Self {
        Scale {
            bulk_files: 2048,
            bulk_big_every: 64,
            bulk_big_bytes: 1 << 20,
            bulk_small_bytes: (512, 16 * 1024),
            bulk_dirs: 40,
            bulk_copy_group: 64,
            walks_per_round: 4,
            bulk_walks_per_round: 2,
            setups: 5,
        }
    }

    /// A quick size with the same shape, for tests.
    pub fn small() -> Self {
        Scale {
            bulk_files: 96,
            bulk_big_every: 32,
            bulk_big_bytes: 200 * 1024,
            bulk_small_bytes: (100, 3000),
            bulk_dirs: 5,
            bulk_copy_group: 16,
            walks_per_round: 1,
            bulk_walks_per_round: 1,
            setups: 1,
        }
    }
}

/// One image a round builds, publishes, launches and serves.
#[derive(Debug, Clone)]
pub struct ImageSpec {
    /// Short name for logs and repository names.
    pub name: String,
    /// Dockerfile text.
    pub dockerfile: String,
    /// `--arch` of the build.
    pub arch: &'static str,
    /// Build context for `COPY`, if any.
    pub context: Option<Filesystem>,
    /// The cold build's transcript must equal this, when set.
    pub transcript: Option<String>,
    /// Header the reference transcript starts with (the figure's command
    /// line), stripped before comparing.
    pub transcript_header: &'static str,
    /// Image path -> (digest, length) of context files the image must
    /// serve verbatim.
    pub copied: Vec<(String, (u64, u64))>,
}

/// The paper's two Dockerfiles in seeded order, each checked against its
/// figure's transcript.
pub fn paper_images(seed: u64) -> Vec<ImageSpec> {
    let mut v = vec![
        ImageSpec {
            name: "centos7".into(),
            dockerfile: centos7_dockerfile().into(),
            arch: "x86_64",
            context: None,
            transcript: Some(hpcc_bench::repro_fig10()),
            transcript_header: "$ ch-image build --force -t foo -f centos7.dockerfile\n",
            copied: Vec::new(),
        },
        ImageSpec {
            name: "debian10".into(),
            dockerfile: debian10_dockerfile().into(),
            arch: "amd64",
            context: None,
            transcript: Some(hpcc_bench::repro_fig11()),
            transcript_header: "$ ch-image build --force -t foo -f debian10.dockerfile\n",
            copied: Vec::new(),
        },
    ];
    if Rng::new(seed, 1).next_u64() & 1 == 1 {
        v.reverse();
    }
    v
}

/// The bulk image: a seeded context of `scale.bulk_files` files copied
/// into `FROM centos:7` in groups, with one `--force` package install
/// before the copies and a final `RUN` after them.
pub fn bulk_image(seed: u64, scale: &Scale) -> ImageSpec {
    let mut sizes = Rng::new(seed, 2);
    let mut bytes = Rng::new(seed, 3);
    let mut ctx = Filesystem::new_local();
    let mut copied = Vec::with_capacity(scale.bulk_files);
    let mut dockerfile = String::from("FROM centos:7\nRUN yum install -y openssh\n");
    let mut group: Vec<String> = Vec::new();
    for i in 0..scale.bulk_files {
        let len = if i % scale.bulk_big_every == scale.bulk_big_every - 1 {
            scale.bulk_big_bytes
        } else {
            let (lo, hi) = scale.bulk_small_bytes;
            sizes.range(lo as u64, hi as u64) as usize
        };
        let mut data = vec![0u8; len];
        bytes.fill(&mut data);
        let digest = ContentHash::of(&data);
        let src = format!("d{:02}/f{:04}", i % scale.bulk_dirs, i);
        ctx.install_file(
            &format!("/{src}"),
            FileBytes::from(data),
            Uid(1000),
            Gid(1000),
            Mode::FILE_644,
        )
        .expect("fresh context path");
        let g = i / scale.bulk_copy_group;
        copied.push((format!("/data/c{g:02}/f{i:04}"), digest));
        group.push(src);
        if group.len() == scale.bulk_copy_group || i + 1 == scale.bulk_files {
            dockerfile.push_str(&format!("COPY {} /data/c{g:02}/\n", group.join(" ")));
            group.clear();
        }
    }
    dockerfile.push_str("RUN echo ready > /data/READY\n");
    ImageSpec {
        name: "bulk".into(),
        dockerfile,
        arch: "x86_64",
        context: Some(ctx),
        transcript: None,
        transcript_header: "",
        copied,
    }
}

/// Number of `RUN`s in a tenant's builder stage.
pub const TENANT_RUNS: usize = 8;
/// Builder-stage `RUN` positions (1-based, after `FROM`) that edits touch:
/// every one after the package install and the tenant's own marker line.
const EDITABLE: std::ops::RangeInclusive<usize> = 3..=TENANT_RUNS;

/// One tenant's evolving two-stage Dockerfile. The builder stage runs a
/// `--force` package install and writes through the shell; the final stage
/// copies its output with `COPY --from`.
#[derive(Debug, Clone)]
pub struct TenantText {
    /// Tenant whose marker line the text carries.
    pub tenant: usize,
    /// Current value of each editable line, by `RUN` position.
    values: Vec<u64>,
}

impl TenantText {
    /// The starting text of `tenant`.
    pub fn new(tenant: usize) -> Self {
        TenantText {
            tenant,
            values: vec![0; TENANT_RUNS + 1],
        }
    }

    /// Edits the line at a seeded depth to a fresh value: steps above it
    /// stay cached, the rest miss.
    pub fn edit(&mut self, rng: &mut Rng) {
        let depth = rng.range(*EDITABLE.start() as u64, *EDITABLE.end() as u64) as usize;
        self.values[depth] = rng.next_u64() >> 16;
    }

    /// The Dockerfile text.
    pub fn render(&self) -> String {
        let mut s = String::from("FROM centos:7 AS build\nRUN yum install -y openssh\n");
        s.push_str(&format!(
            "RUN mkdir -p /srv/app/etc /srv/app/src && echo tenant-{} > /srv/app/etc/owner\n",
            self.tenant
        ));
        for pos in EDITABLE {
            let v = self.values[pos];
            let line = match pos % 3 {
                0 => format!("RUN echo step{pos}-{v} > /srv/app/etc/step{pos}\n"),
                1 => format!("RUN touch /srv/app/src/unit{pos}-{v}.c\n"),
                _ => format!("RUN mkdir -p /srv/app/lib{pos}-{v}\n"),
            };
            s.push_str(&line);
        }
        s.push_str("FROM centos:7\nCOPY --from=build /srv/app /srv/app\n");
        s
    }
}

/// Each round's texts for every tenant: every tenant edits its own text,
/// then tenant 1 adopts tenant 0's, so two tenants submit identical text
/// and the farm's in-flight dedup has work to do.
pub fn tenant_round(texts: &mut [TenantText], rng: &mut Rng) -> Vec<String> {
    for t in texts.iter_mut() {
        t.edit(rng);
    }
    let mut out: Vec<String> = texts.iter().map(TenantText::render).collect();
    if out.len() > 1 {
        out[1] = out[0].clone();
    }
    out
}
