//! The paper's evaluation as data: Tables 1–3 with the hardware cost,
//! Figs. 5–15 (with the §5.1 no-ring machine in Fig. 6), the §5.3.2 and
//! §3.4 ablations, and a one-screen summary.
//!
//! Each [`Figure`] holds the sweep cells it is made of, a function that
//! turns their reports into the printed tables, and one [`Claim`] per
//! verdict EXPERIMENTS.md records for it. [`run`] runs the cells of a
//! set of figures as one sweep, each distinct cell once, and
//! [`Verdicts`] judges their claims: a ✅ claim that fails is an error,
//! and a 🟡/❌ claim reports whether it is still deviating or now
//! reproduced. `netcache figures` drives both.
//!
//! Every figure simulates the paper's 16-node machine, each application
//! at its input scale from [`scale`].

use std::collections::HashMap;

use netcache_apps::AppId;
use netcache_core::latency::{self, Component};
use netcache_core::sweep::{Sweep, SweepObserver, SweepPoint, SweepResult};
use netcache_core::{json, point_key, Arch, ChannelAssoc, Replacement, RingConfig, RunReport};
use netcache_core::{Store, SysConfig};
use optics::HardwareCost;
use Mark::{Deviates, Partial, Reproduced};

// The words the claims use, fixed once. EXPERIMENTS.md states them too.

/// "Tie", "≈", "~x": two values within 15% of each other.
pub const TIE: f64 = 0.15;
/// "Flat", "barely moves", "unmoved": a change of at most 5% of the
/// quantity's scale (5 points of a hit rate in %, 0.05 of a normalized
/// time). A "gain" or a "climb" is a change beyond it.
pub const FLAT: f64 = 0.05;
/// "A small fraction": under a third.
const SMALL: f64 = 100.0 / 3.0;

/// "Most": more than half.
fn most(n: usize, of: usize) -> bool {
    2 * n > of
}

/// [`TIE`]: `a` lies within 15% of `b`.
fn tie(a: f64, b: f64) -> bool {
    (a / b - 1.0).abs() <= TIE
}

/// [`FLAT`] for a hit-rate row in %: its spread is at most 5 points.
fn flat(v: &[f64]) -> bool {
    let (lo, hi) = v
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
    hi - lo <= 100.0 * FLAT
}

/// A hit-rate row in % that climbs by more than [`FLAT`] at every step.
fn climbs(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[1] - w[0] > 100.0 * FLAT)
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

/// The input scale every figure runs `app` at. The paper's runs took
/// hours; these keep the whole evaluation to seconds while keeping each
/// application's working-set structure (each app's `Params::scaled`
/// says what shrinks).
pub fn scale(app: AppId) -> f64 {
    match app {
        AppId::Cg => 0.2,
        AppId::Em3d => 0.5,
        AppId::Fft => 1.0, // paper size: FFT is cheap
        AppId::Gauss => 0.3,
        AppId::Lu => 0.2,
        AppId::Mg => 0.5,
        AppId::Ocean => 0.5,
        AppId::Radix => 0.1,
        AppId::Raytrace => 0.5,
        AppId::Sor => 0.1,
        AppId::Water => 0.5, // 2 timesteps
        AppId::Wf => 0.08,
    }
}

/// Fig. 5's two cells for `app`: a 1-node baseline and `cfg`'s machine.
pub fn speedup_cells(cfg: SysConfig, app: AppId, scale: f64) -> [SweepPoint; 2] {
    let mut uni = SysConfig { nodes: 1, ..cfg };
    // A 1-node ring would be degenerate; the uniprocessor baseline has
    // no network at all.
    uni.ring.channels = 0;
    [uni, cfg].map(|c| SweepPoint::new(c, app, scale))
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label (an application, a component, `radix-DI`, ...).
    pub label: String,
    /// Column values, aligned with the table's headers.
    pub values: Vec<f64>,
}

impl Row {
    fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Row {
            label: label.into(),
            values,
        }
    }
}

/// How a table prints its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// A 24-wide label, then 12-wide columns: integral values as
    /// integers, the rest to three decimals.
    Paper,
    /// The summary's layout: four cycle columns, then three
    /// percentages to one decimal.
    Summary,
}

/// One printed table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Its name on the title line (`fig06_runtime`).
    pub name: &'static str,
    /// What it shows.
    pub title: &'static str,
    /// Column headers.
    pub headers: &'static [&'static str],
    /// The rows, in print order.
    pub rows: Vec<Row>,
    /// Lines printed under the table.
    pub notes: Vec<String>,
    /// How the rows print.
    pub layout: Layout,
}

/// A table's name, title and column headers.
type Spec = (&'static str, &'static str, &'static [&'static str]);

impl Table {
    fn new((name, title, headers): Spec, rows: Vec<Row>) -> Self {
        let (notes, layout) = (Vec::new(), Layout::Paper);
        Self {
            name,
            title,
            headers,
            rows,
            notes,
            layout,
        }
    }

    /// The values of the row labelled `label`.
    ///
    /// # Panics
    /// If the table has no such row.
    pub fn row(&self, label: &str) -> &[f64] {
        match self.rows.iter().find(|r| r.label == label) {
            Some(r) => &r.values,
            None => panic!("{}: no row {label}", self.name),
        }
    }

    /// Column `i`, top to bottom.
    pub fn col(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        self.rows.iter().map(move |r| r.values[i])
    }

    /// The table as `netcache figures` prints it.
    pub fn render(&self) -> String {
        let mut out = format!("\n=== {}: {} ===\n", self.name, self.title);
        let h = self.headers;
        match self.layout {
            Layout::Paper => {
                out += &format!("{:<24}", "");
                for h in h {
                    out += &format!(" {h:>12}");
                }
                for r in &self.rows {
                    out += &format!("\n{:<24}", r.label);
                    for &v in &r.values {
                        if v.fract() == 0.0 && v.abs() < 1e12 {
                            out += &format!(" {:>12}", v as i64);
                        } else {
                            out += &format!(" {v:>12.3}");
                        }
                    }
                }
            }
            Layout::Summary => {
                out += &format!(
                    "{:<10} {:>12} {:>12} {:>12} {:>12}  {:>6} {:>7} {:>6}",
                    "app", h[0], h[1], h[2], h[3], h[4], h[5], h[6]
                );
                for r in &self.rows {
                    let v = &r.values;
                    out += &format!(
                        "\n{:<10} {:>12} {:>12} {:>12} {:>12}  {:>6.1} {:>7.1} {:>6.1}",
                        r.label, v[0], v[1], v[2], v[3], v[4], v[5], v[6]
                    );
                }
            }
        }
        for n in &self.notes {
            out += &format!("\n{n}");
        }
        out
    }
}

/// An EXPERIMENTS.md verdict mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// ✅ shape reproduced.
    Reproduced,
    /// 🟡 direction right, magnitude off.
    Partial,
    /// ❌ not reproduced.
    Deviates,
}

impl Mark {
    /// The mark as EXPERIMENTS.md writes it.
    pub fn symbol(self) -> &'static str {
        ["✅", "🟡", "❌"][self as usize]
    }
}

/// One verdict of EXPERIMENTS.md, as code.
#[derive(Debug, Clone)]
pub struct Claim {
    /// The verdict EXPERIMENTS.md records.
    pub mark: Mark,
    /// What is claimed. For 🟡/❌ it is the paper's shape, which
    /// `holds` tests.
    pub text: &'static str,
    /// True if the claim holds on the figure's tables.
    pub holds: fn(&[Table]) -> bool,
}

fn claim(mark: Mark, text: &'static str, holds: fn(&[Table]) -> bool) -> Claim {
    Claim { mark, text, holds }
}

/// One table or figure of the paper's evaluation.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Its name on the command line (`fig6`).
    pub name: &'static str,
    /// The sweep cells its tables are made of.
    pub cells: Vec<SweepPoint>,
    /// Turns the cells' reports, in `cells` order, into its tables.
    pub tables: fn(&[&RunReport]) -> Vec<Table>,
    /// One claim per verdict EXPERIMENTS.md records for it.
    pub claims: Vec<Claim>,
}

/// Every application on every machine of `cfgs`, app-major.
fn per_app_cells(cfgs: &[SysConfig]) -> Vec<SweepPoint> {
    AppId::ALL
        .iter()
        .flat_map(|&app| {
            cfgs.iter()
                .map(move |&c| SweepPoint::new(c, app, scale(app)))
        })
        .collect()
}

/// A table with one row per application, made by `row` from that
/// application's reports in [`per_app_cells`] order.
fn app_table(spec: Spec, reports: &[&RunReport], row: impl Fn(&[&RunReport]) -> Vec<f64>) -> Table {
    let n = reports.len() / AppId::ALL.len();
    let rows = reports.chunks(n).zip(AppId::ALL);
    let rows = rows.map(|(r, app)| Row::new(app.name(), row(r))).collect();
    Table::new(spec, rows)
}

fn pct(x: f64) -> f64 {
    100.0 * x
}

fn hit_rates(r: &[&RunReport]) -> Vec<f64> {
    r.iter().map(|x| pct(x.shared_cache_hit_rate())).collect()
}

/// `f` of each report relative to the first's.
fn relative(r: &[&RunReport], f: fn(&RunReport) -> u64) -> Vec<f64> {
    let base = f(r[0]).max(1) as f64;
    r.iter().map(|&x| f(x) as f64 / base).collect()
}

/// The rows of `t` labelled `apps` all satisfy `f`.
fn rows_of(t: &[Table], apps: &[&str], f: impl Fn(&[f64]) -> bool) -> bool {
    apps.iter().all(|a| f(t[0].row(a)))
}

/// Figs. 13–15 study Radix and Gauss on all four systems.
const TREND_APPS: [AppId; 2] = [AppId::Radix, AppId::Gauss];
const TREND_ARCHS: [(Arch, &str); 4] = [
    (Arch::DmonI, "DI"),
    (Arch::LambdaNet, "L"),
    (Arch::DmonU, "DU"),
    (Arch::NetCache, "N"),
];

/// [`TREND_APPS`] × [`TREND_ARCHS`] × the three machines `vary` makes
/// of each system's base machine.
fn trend_cells(vary: fn(SysConfig) -> [SysConfig; 3]) -> Vec<SweepPoint> {
    let mut cells = Vec::new();
    for app in TREND_APPS {
        for (arch, _) in TREND_ARCHS {
            let cfgs = vary(SysConfig::base(arch));
            cells.extend(cfgs.map(|c| SweepPoint::new(c, app, scale(app))));
        }
    }
    cells
}

/// A table of run times with one row per (app, system), labelled like
/// `radix-DI`, from [`trend_cells`]' reports.
fn trend_table(spec: Spec, reports: &[&RunReport]) -> Table {
    let labels = TREND_APPS
        .iter()
        .flat_map(|app| TREND_ARCHS.map(|(_, s)| format!("{}-{s}", app.name())));
    let rows = reports.chunks(3).zip(labels);
    let rows = rows.map(|(r, label)| Row::new(label, r.iter().map(|x| x.cycles as f64).collect()));
    Table::new(spec, rows.collect())
}

/// The trend row of `app` on the system `s` (`DI`, `L`, `DU` or `N`).
fn trend<'a>(t: &'a [Table], app: &str, s: &str) -> &'a [f64] {
    t[0].row(&format!("{app}-{s}"))
}

/// On both trend apps, NetCache's `of` of its row is below every
/// baseline's.
fn netcache_beats(t: &[Table], of: fn(&[f64]) -> f64) -> bool {
    TREND_APPS.iter().all(|a| {
        let of = |s| of(trend(t, a.name(), s));
        ["DI", "L", "DU"].iter().all(|s| of("N") < of(s))
    })
}

fn tables() -> Figure {
    Figure {
        name: "tables",
        cells: Vec::new(),
        tables: |_| {
            let cfg = SysConfig::base(Arch::NetCache);
            let total = |parts: &[Component]| vec![latency::total(parts) as f64];
            let breakdown = |name, title, parts: Vec<Component>| {
                let rows = parts.iter().map(|&(n, v)| Row::new(n, vec![v as f64]));
                let total = Row::new("TOTAL", total(&parts));
                Table::new((name, title, &["pcycles"]), rows.chain([total]).collect())
            };
            let p = cfg.nodes;
            let costs = [
                ("DMON-I", HardwareCost::dmon_i(p)),
                ("DMON-U", HardwareCost::dmon_u(p)),
                ("LambdaNet", HardwareCost::lambdanet(p)),
                ("NetCache", HardwareCost::netcache(p, cfg.ring.channels)),
            ];
            let costs = costs.iter().map(|(name, c)| {
                let v = [
                    c.fixed_tx,
                    c.fixed_rx,
                    c.tunable_tx,
                    c.tunable_rx,
                    c.total(),
                ];
                Row::new(*name, v.map(|x| x as f64).to_vec())
            });
            vec![
                breakdown(
                    "table1_hit",
                    "NetCache shared-cache read hit (paper total: 46)",
                    latency::netcache_hit(&cfg),
                ),
                breakdown(
                    "table1_miss",
                    "NetCache shared-cache read miss (paper total: 119)",
                    latency::netcache_miss(&cfg),
                ),
                breakdown(
                    "table2_lambdanet",
                    "LambdaNet 2nd-level read miss (paper total: 111)",
                    latency::lambdanet_miss(&cfg),
                ),
                breakdown(
                    "table2_dmon",
                    "DMON 2nd-level read miss (paper total: 135)",
                    latency::dmon_miss(&cfg),
                ),
                Table::new(
                    (
                        "table3",
                        "Coherence transaction totals, 8 words (paper: 41 / 24 / 43 / 37)",
                        &["pcycles"],
                    ),
                    vec![
                        Row::new("NetCache", total(&latency::netcache_update(&cfg))),
                        Row::new("LambdaNet", total(&latency::lambdanet_update(&cfg))),
                        Row::new("DMON-U", total(&latency::dmon_u_update(&cfg))),
                        Row::new("DMON-I", total(&latency::dmon_i_invalidate(&cfg))),
                    ],
                ),
                Table::new(
                    (
                        "hardware_cost",
                        "Optical component counts at p=16 (paper §2-3: 6p / 7p / p(p+1) / 25p)",
                        &["fixedTx", "fixedRx", "tunTx", "tunRx", "total"],
                    ),
                    costs.collect(),
                ),
            ]
        },
        claims: vec![claim(
            Reproduced,
            "every printed total equals the paper's: 46, 119, 111, 135; \
             41/24/43/37; hardware 96/112/272/400",
            |t| {
                (0..4)
                    .map(|i| t[i].row("TOTAL")[0])
                    .eq([46.0, 119.0, 111.0, 135.0])
                    && t[4].col(0).eq([41.0, 24.0, 43.0, 37.0])
                    && t[5].col(4).eq([96.0, 112.0, 272.0, 400.0])
            },
        )],
    }
}

fn fig5() -> Figure {
    let nc = SysConfig::base(Arch::NetCache);
    Figure {
        name: "fig5",
        cells: AppId::ALL
            .iter()
            .flat_map(|&app| speedup_cells(nc, app, scale(app)))
            .collect(),
        tables: |r| {
            let title = "Speedup of the 16-node NetCache machine (paper Fig. 5)";
            let table = ("fig05_speedup", title, &["T(1)", "T(p)", "speedup"][..]);
            vec![app_table(table, r, |r| {
                let (t1, tp) = (r[0].cycles as f64, r[1].cycles as f64);
                vec![t1, tp, t1 / tp]
            })]
        },
        claims: vec![
            claim(Reproduced, "em3d is superlinear (speedup above 16)", |t| {
                t[0].row("em3d")[2] > 16.0
            }),
            claim(Reproduced, "most apps reach a speedup of 10-15", |t| {
                let n = t[0].col(2).filter(|s| (10.0..=15.0).contains(s));
                most(n.count(), t[0].rows.len())
            }),
            claim(Reproduced, "lu's speedup is below the suite's mean", |t| {
                t[0].row("lu")[2] < mean(t[0].col(2))
            }),
            claim(
                Partial,
                "radix's speedup is good (10 or more) and wf's poor (below 10)",
                |t| t[0].row("radix")[2] >= 10.0 && t[0].row("wf")[2] < 10.0,
            ),
        ],
    }
}

fn fig6() -> Figure {
    let mut cfgs = Arch::ALL.map(SysConfig::base).to_vec();
    cfgs.push(SysConfig::netcache_no_ring());
    // Column `c`'s mean: 1 LambdaNet, 2 DMON-U, 3 DMON-I, 4 no-ring.
    fn avg(t: &[Table], c: usize) -> f64 {
        mean(t[0].col(c))
    }
    Figure {
        name: "fig6",
        cells: per_app_cells(&cfgs),
        tables: |r| {
            let title = "Run time normalized to NetCache (16 nodes, 32 KB shared cache)";
            let headers = &[
                "NetCache",
                "LambdaNet",
                "DMON-U",
                "DMON-I",
                "NC-noring",
                "NC cycles",
            ];
            let mut t = app_table(("fig06_runtime", title, headers), r, |r| {
                let mut v = relative(r, |x| x.cycles);
                v.push(r[0].cycles as f64);
                v
            });
            let avg = |c| mean(t.col(c));
            let line = format!(
                "averages vs NetCache: LambdaNet {:.2}x (paper ~1.26x), DMON-U {:.2}x \
                 (~1.32x), DMON-I {:.2}x (~1.50x), no-ring {:.2}x (~LambdaNet)",
                avg(1),
                avg(2),
                avg(3),
                avg(4)
            );
            t.notes = vec![String::new(), line];
            vec![t]
        },
        claims: vec![
            claim(
                Reproduced,
                "NetCache is fastest or tied on every application",
                |t| {
                    t[0].rows
                        .iter()
                        .all(|r| r.values[1..4].iter().all(|&v| v >= 1.0 || tie(v, 1.0)))
                },
            ),
            claim(
                Reproduced,
                "LambdaNet < DMON-U <= DMON-I on average, and DMON-I is slowest on em3d, \
                 radix and lu",
                |t| {
                    let worst = |v: &[f64]| v[..4].iter().all(|&x| x <= v[3]);
                    avg(t, 1) < avg(t, 2)
                        && avg(t, 2) <= avg(t, 3)
                        && rows_of(t, &["em3d", "radix", "lu"], worst)
                },
            ),
            claim(
                Partial,
                "LambdaNet ties NetCache on em3d, fft and radix (the paper's ties), and \
                 on sor and ocean",
                |t| {
                    rows_of(t, &["em3d", "fft", "radix", "sor", "ocean"], |v| {
                        tie(v[1], 1.0)
                    })
                },
            ),
            claim(
                Partial,
                "the DMON averages tie the paper's 1.32 and 1.50, with DMON-U <= DMON-I \
                 on every app",
                |t| {
                    let ordered = t[0].rows.iter().all(|r| r.values[2] <= r.values[3]);
                    tie(avg(t, 2), 1.32) && tie(avg(t, 3), 1.50) && ordered
                },
            ),
            claim(
                Reproduced,
                "§5.1: NetCache without the ring ties LambdaNet on average",
                |t| tie(avg(t, 4), avg(t, 1)),
            ),
            claim(
                Reproduced,
                "§5.1: NetCache without the ring is well ahead of DMON-U on average (no tie)",
                |t| avg(t, 4) < avg(t, 2) && !tie(avg(t, 4), avg(t, 2)),
            ),
        ],
    }
}

/// The one-screen summary: the four systems' run times, and NetCache's
/// shared-cache hit rate, read-latency and sync fractions.
fn summary() -> Figure {
    Figure {
        name: "summary",
        cells: per_app_cells(&Arch::ALL.map(SysConfig::base)),
        tables: |r| {
            let title = "Run times of the four systems; NetCache's hit, read-latency and sync %";
            let headers = &[
                "NetCache",
                "LambdaNet",
                "DMON-U",
                "DMON-I",
                "hit%",
                "rdlat%",
                "sync%",
            ];
            let mut t = app_table(("summary", title, headers), r, |r| {
                let nc = r[0];
                let profile = [
                    nc.shared_cache_hit_rate(),
                    nc.read_latency_fraction(),
                    nc.sync_fraction(),
                ];
                let cycles = r.iter().map(|x| x.cycles as f64);
                cycles.chain(profile.map(pct)).collect()
            });
            t.layout = Layout::Summary;
            vec![t]
        },
        claims: Vec::new(),
    }
}

fn fig7() -> Figure {
    Figure {
        name: "fig7",
        cells: per_app_cells(&[
            SysConfig::netcache_no_ring(),
            SysConfig::base(Arch::NetCache),
        ]),
        tables: |r| {
            let title = "Read-latency fraction, shared-cache hit rate, miss-latency and \
                         read-latency reductions (%)";
            let headers = &["RLofTotal%", "HitRate%", "MissLat-%", "ReadLat-%"];
            vec![app_table(("fig07_caching", title, headers), r, |r| {
                let (base, cached) = (r[0], r[1]);
                let cut = |before: f64, after: f64| {
                    if before > 0.0 {
                        pct(1.0 - after / before)
                    } else {
                        0.0
                    }
                };
                let stall = |x: &RunReport| x.total_read_stall() as f64;
                vec![
                    pct(base.read_latency_fraction()),
                    pct(cached.shared_cache_hit_rate()),
                    cut(
                        base.avg_shared_read_latency(),
                        cached.avg_shared_read_latency(),
                    ),
                    cut(stall(base), stall(cached)),
                ]
            })]
        },
        claims: vec![
            claim(
                Reproduced,
                "low reuse: em3d, fft and radix hit below 32%",
                |t| rows_of(t, &["em3d", "fft", "radix"], |v| v[1] < 32.0),
            ),
            claim(Partial, "high reuse: gauss and lu hit ~70%", |t| {
                rows_of(t, &["gauss", "lu"], |v| tie(v[1], 70.0))
            }),
            claim(
                Partial,
                "moderate reuse: cg, ocean, raytrace, water and wf hit from 32% up to \
                 the high class (below 70% less 15%)",
                |t| {
                    let moderate = |v: &[f64]| (32.0..70.0 * (1.0 - TIE)).contains(&v[1]);
                    rows_of(t, &["cg", "ocean", "raytrace", "water", "wf"], moderate)
                },
            ),
            claim(
                Reproduced,
                "read latency is a small fraction of run time for wf and water",
                |t| rows_of(t, &["wf", "water"], |v| v[0] < SMALL),
            ),
            claim(
                Partial,
                "read latency is a small fraction of run time for radix",
                |t| t[0].row("radix")[0] < SMALL,
            ),
        ],
    }
}

/// NetCache with a `kb` KB ring (0: no ring).
fn ring(kb: u64) -> SysConfig {
    SysConfig::base(Arch::NetCache).with_ring_kb(kb)
}

fn fig8() -> Figure {
    Figure {
        name: "fig8",
        cells: per_app_cells(&[16, 32, 64].map(ring)),
        tables: |r| {
            let title = "Shared-cache hit rates (%) vs capacity, 16 nodes";
            let headers = &["16 KB", "32 KB", "64 KB"];
            vec![app_table(
                ("fig08_cache_size", title, headers),
                r,
                hit_rates,
            )]
        },
        claims: vec![
            claim(
                Partial,
                "low reuse: fft, radix and em3d stay flat and below 10%",
                |t| {
                    rows_of(t, &["fft", "radix", "em3d"], |v| {
                        flat(v) && v.iter().all(|&h| h < 10.0)
                    })
                },
            ),
            claim(Partial, "lu stays flat and high (~70%)", |t| {
                let v = t[0].row("lu");
                flat(v) && v.iter().all(|&h| tie(h, 70.0))
            }),
            claim(
                Reproduced,
                "moderate reuse: ocean, raytrace, water and gauss climb at every size step",
                |t| rows_of(t, &["ocean", "raytrace", "water", "gauss"], climbs),
            ),
            claim(Partial, "wf stays flat at every size", |t| {
                flat(t[0].row("wf"))
            }),
            claim(Deviates, "sor climbs at every size step", |t| {
                climbs(t[0].row("sor"))
            }),
            claim(Partial, "mg stays flat at ~70%", |t| {
                let v = t[0].row("mg");
                flat(v) && v.iter().all(|&h| tie(h, 70.0))
            }),
        ],
    }
}

fn fig9() -> Figure {
    Figure {
        name: "fig9",
        cells: per_app_cells(&[0, 16, 32, 64].map(ring)),
        tables: |r| {
            let title = "Total read latency normalized to the no-shared-cache machine";
            let headers = &["0 KB", "16 KB", "32 KB", "64 KB"];
            vec![app_table(("fig09_read_latency", title, headers), r, |r| {
                relative(r, RunReport::total_read_stall)
            })]
        },
        claims: vec![
            claim(
                Reproduced,
                "fft, radix and sor's read latency barely moves at 32 KB",
                |t| rows_of(t, &["fft", "radix", "sor"], |v| (1.0 - v[2]).abs() <= FLAT),
            ),
            claim(
                Partial,
                "the mean read-latency reduction at 32 KB ties the paper's 28%",
                |t| tie(mean(t[0].col(2).map(|v| pct(1.0 - v))), 28.0),
            ),
        ],
    }
}

fn fig10() -> Figure {
    Figure {
        name: "fig10",
        cells: per_app_cells(&[0, 16, 32, 64].map(ring)),
        tables: |r| {
            let title = "Run time normalized to the no-shared-cache machine";
            let headers = &["0 KB", "16 KB", "32 KB", "64 KB"];
            vec![app_table(("fig10_runtime_size", title, headers), r, |r| {
                relative(r, |x| x.cycles)
            })]
        },
        claims: vec![
            claim(
                Partial,
                "run time gains at 32 KB for 9 apps, and none for fft, radix and sor",
                |t| {
                    let gains = t[0].col(2).filter(|&v| 1.0 - v > FLAT).count();
                    gains == 9 && rows_of(t, &["fft", "radix", "sor"], |v| 1.0 - v[2] <= FLAT)
                },
            ),
            claim(
                Reproduced,
                "wf's run-time gain at 32 KB is among the three largest",
                |t| t[0].col(2).filter(|&v| v < t[0].row("wf")[2]).count() < 3,
            ),
            claim(
                Partial,
                "every app that gains at 64 KB improves monotonically, and 32 KB captures \
                 most of its gain",
                |t| {
                    let gaining = t[0]
                        .rows
                        .iter()
                        .map(|r| &r.values)
                        .filter(|v| 1.0 - v[3] > FLAT);
                    gaining.into_iter().all(|v| {
                        v.windows(2).all(|w| w[1] <= w[0]) && 1.0 - v[2] > (1.0 - v[3]) / 2.0
                    })
                },
            ),
        ],
    }
}

fn fig11() -> Figure {
    let base = SysConfig::base(Arch::NetCache);
    Figure {
        name: "fig11",
        cells: per_app_cells(&[base, base.with_assoc(ChannelAssoc::Direct)]),
        tables: |r| {
            let title =
                "32 KB shared-cache hit rates (%): fully-associative vs direct-mapped channels";
            vec![app_table(
                ("fig11_associativity", title, &["Fully", "Direct"]),
                r,
                hit_rates,
            )]
        },
        claims: vec![claim(
            Partial,
            "direct-mapped channels never exceed ~25%, and fully-associative ones are \
             always better, by more than a tie",
            |t| {
                t[0].rows.iter().all(|r| {
                    let (fully, direct) = (r.values[0], r.values[1]);
                    direct <= 25.0 * (1.0 + TIE) && fully > direct && !tie(fully, direct)
                })
            },
        )],
    }
}

fn fig12() -> Figure {
    let base = SysConfig::base(Arch::NetCache);
    Figure {
        name: "fig12",
        cells: per_app_cells(&Replacement::ALL.map(|p| base.with_replacement(p))),
        tables: |r| {
            let title = "32 KB shared-cache hit rates (%) by replacement policy";
            let headers = &["Random", "LFU", "LRU", "FIFO"];
            vec![app_table(
                ("fig12_replacement", title, headers),
                r,
                hit_rates,
            )]
        },
        claims: vec![
            claim(
                Reproduced,
                "LFU is the worst policy for the high-reuse apps gauss, lu and mg",
                |t| {
                    rows_of(t, &["gauss", "lu", "mg"], |v| {
                        [v[0], v[2], v[3]].iter().all(|&x| v[1] < x)
                    })
                },
            ),
            claim(
                Deviates,
                "Random hits highest on almost every app (all but one)",
                |t| {
                    let top = t[0]
                        .rows
                        .iter()
                        .filter(|r| r.values.iter().all(|&x| x <= r.values[0]));
                    top.count() + 1 >= t[0].rows.len()
                },
            ),
        ],
    }
}

fn fig13() -> Figure {
    Figure {
        name: "fig13",
        cells: trend_cells(|c| [16, 32, 64].map(|kb| c.with_l2_kb(kb))),
        tables: |r| {
            let title = "Run time (pcycles) vs 2nd-level cache size";
            vec![trend_table(
                ("fig13_l2_size", title, &["16 KB", "32 KB", "64 KB"]),
                r,
            )]
        },
        claims: vec![
            claim(
                Reproduced,
                "gauss runs faster with every L2 doubling on every system",
                |t| {
                    let faster = |s| trend(t, "gauss", s).windows(2).all(|w| w[1] < w[0]);
                    TREND_ARCHS.iter().all(|(_, s)| faster(s))
                },
            ),
            claim(
                Partial,
                "with a 4x L2, every baseline still trails NetCache's 16 KB L2 on gauss",
                |t| {
                    let nc = trend(t, "gauss", "N")[0];
                    ["DI", "L", "DU"]
                        .iter()
                        .all(|s| trend(t, "gauss", s)[2] > nc)
                },
            ),
            claim(
                Partial,
                "radix: only DMON-I gains from a 4x L2; the update systems barely move",
                |t| {
                    let gain = |s| 1.0 - trend(t, "radix", s)[2] / trend(t, "radix", s)[0];
                    gain("DI") > FLAT && ["L", "DU", "N"].iter().all(|s| gain(s).abs() <= FLAT)
                },
            ),
        ],
    }
}

fn fig14() -> Figure {
    Figure {
        name: "fig14",
        cells: trend_cells(|c| [5.0, 10.0, 20.0].map(|g| c.with_rate_gbps(g))),
        tables: |r| {
            let title = "Run time (pcycles) vs optical transmission rate";
            vec![trend_table(
                ("fig14_tx_rate", title, &["5 Gbps", "10 Gbps", "20 Gbps"]),
                r,
            )]
        },
        claims: vec![
            claim(
                Partial,
                "5 Gbit/s slows DMON-I and DMON-U more than LambdaNet and NetCache, on \
                 both apps",
                |t| {
                    TREND_APPS.iter().all(|app| {
                        let slow = |s| trend(t, app.name(), s)[0] / trend(t, app.name(), s)[1];
                        slow("DI").min(slow("DU")) > slow("L").max(slow("N"))
                    })
                },
            ),
            claim(
                Reproduced,
                "from 10 to 20 Gbit/s NetCache gains the most of any system, on both apps",
                |t| netcache_beats(t, |v| v[2] / v[1]),
            ),
        ],
    }
}

fn fig15() -> Figure {
    Figure {
        name: "fig15",
        cells: trend_cells(|c| [44, 76, 108].map(|lat| c.with_mem_latency(lat))),
        tables: |r| {
            let title = "Run time (pcycles) vs memory block read latency (last column: \
                         growth 44->108, %)";
            let headers = &["44 pc", "76 pc", "108 pc", "growth%"];
            let mut t = trend_table(("fig15_mem_latency", title, headers), r);
            for row in &mut t.rows {
                let v = &row.values;
                let growth = (v[2] - v[0]) / v[0];
                row.values.push(100.0 * growth);
            }
            vec![t]
        },
        claims: vec![claim(
            Reproduced,
            "NetCache's run time grows the least from 44 to 108 pcycles, on both apps",
            |t| netcache_beats(t, |v| v[3]),
        )],
    }
}

fn block_size() -> Figure {
    let base = SysConfig::base(Arch::NetCache);
    let ring = RingConfig {
        block_bytes: 128,
        frames_per_channel: 2,
        ..base.ring
    };
    Figure {
        name: "sec5.3.2",
        cells: per_app_cells(&[base, SysConfig { ring, ..base }]),
        tables: |r| {
            let title =
                "64 B vs 128 B shared-cache lines at 32 KB (penalty%: positive = 128 B is worse)";
            let headers = &["64B cyc", "128B cyc", "penalty%", "hit64%", "hit128%"];
            vec![app_table(("ablation_block_size", title, headers), r, |r| {
                let (c64, c128) = (r[0].cycles as f64, r[1].cycles as f64);
                let mut v = vec![c64, c128, 100.0 * (c128 / c64 - 1.0)];
                v.extend(hit_rates(r));
                v
            })]
        },
        claims: vec![claim(
            Partial,
            "128 B lines never gain, and cost em3d ~33% and cg ~12%",
            |t| {
                t[0].col(2).all(|p| p >= -100.0 * FLAT)
                    && tie(t[0].row("em3d")[2], 33.0)
                    && tie(t[0].row("cg")[2], 12.0)
            },
        )],
    }
}

fn design() -> Figure {
    let variant = |dual: bool, window: bool| {
        let mut cfg = SysConfig::base(Arch::NetCache);
        cfg.ring.dual_path_reads = dual;
        cfg.ring.race_window = window;
        cfg
    };
    Figure {
        name: "sec3.4",
        cells: per_app_cells(&[
            variant(true, true),  // the architecture
            variant(false, true), // ring-probe-first reads
            variant(true, false), // no race window (unsafe)
        ]),
        tables: |r| {
            let title = "NetCache §3.4 mechanism ablations (deltas vs the real design, %)";
            let headers = &["base cyc", "serial-rd +%", "no-window +%", "win delays"];
            let mut t = app_table(("ablation_design", title, headers), r, |r| {
                let base = r[0].cycles as f64;
                let delta = |x: &RunReport| 100.0 * (x.cycles as f64 / base - 1.0);
                let delays = r[0].ring.map_or(0.0, |g| g.window_delays as f64);
                vec![base, delta(r[1]), delta(r[2]), delays]
            });
            t.notes = vec![
                String::new(),
                "serial-rd: read misses probe the ring before requesting memory (paper \
                 predicts ~half a roundtrip of extra miss latency)."
                    .into(),
                "no-window: disables the race FIFO — any speedup is the price the real \
                 design pays for correctness."
                    .into(),
            ];
            vec![t]
        },
        claims: vec![
            claim(
                Reproduced,
                "dual-path reads pay: ring-probe-first reads slow every app down",
                |t| t[0].col(1).all(|d| d > 0.0),
            ),
            claim(
                Partial,
                "removing the race window moves no app but lu by more than 1%",
                |t| {
                    t[0].rows
                        .iter()
                        .all(|r| r.label == "lu" || r.values[2].abs() <= 1.0)
                },
            ),
        ],
    }
}

/// Every figure, in the paper's order.
pub fn all() -> Vec<Figure> {
    let figures: [fn() -> Figure; 15] = [
        tables, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15, block_size,
        design, summary,
    ];
    figures.iter().map(|f| f()).collect()
}

/// The figures `names` selects, in the paper's order; every figure if
/// `names` is empty. An unknown name is an error naming it and the valid
/// names.
pub fn select(names: &[String]) -> Result<Vec<Figure>, String> {
    let all = all();
    if let Some(bad) = names
        .iter()
        .find(|n| all.iter().all(|f| f.name != n.as_str()))
    {
        let valid: Vec<&str> = all.iter().map(|f| f.name).collect();
        return Err(format!("unknown figure {bad}; one of: {}", valid.join(" ")));
    }
    let wanted = |f: &Figure| names.is_empty() || names.iter().any(|n| n == f.name);
    Ok(all.into_iter().filter(wanted).collect())
}

/// Runs the cells of `figs` as one sweep through `store`, each distinct
/// cell ([`point_key`]) once, and returns every figure's tables with the
/// sweep's result.
pub fn run(
    figs: &[Figure],
    jobs: usize,
    obs: &(impl SweepObserver + ?Sized),
    store: Option<&Store>,
) -> (Vec<Vec<Table>>, SweepResult) {
    let mut slot = HashMap::new();
    let mut points = Vec::new();
    for p in figs.iter().flat_map(|f| &f.cells) {
        slot.entry(point_key(p)).or_insert_with(|| {
            points.push(p.clone());
            points.len() - 1
        });
    }
    let result = Sweep::from_points(points).run_stored(jobs, obs, store);
    let report = |p: &SweepPoint| &result.runs[slot[&point_key(p)]].report;
    let tables = figs.iter().map(|f| {
        let reports: Vec<&RunReport> = f.cells.iter().map(report).collect();
        (f.tables)(&reports)
    });
    (tables.collect(), result)
}

/// The judgement of a run's claims.
#[derive(Debug, Default)]
pub struct Verdicts {
    /// One line per claim: its mark, its status and `figure: claim`.
    pub lines: Vec<String>,
    /// The ✅ claims that failed, as `figure: claim`.
    pub failed: Vec<String>,
}

impl Verdicts {
    /// Judges every claim of `fig` on its `tables`.
    pub fn judge(&mut self, fig: &Figure, tables: &[Table]) {
        for c in &fig.claims {
            let holds = (c.holds)(tables);
            let status = match (c.mark, holds) {
                (Reproduced, true) => "holds",
                (Reproduced, false) => "FAILS",
                (_, true) => "now reproduced",
                (_, false) => "still deviating",
            };
            let name = format!("{}: {}", fig.name, c.text);
            self.lines
                .push(format!("{} {status:<15}  {name}", c.mark.symbol()));
            if c.mark == Reproduced && !holds {
                self.failed.push(name);
            }
        }
    }

    /// The runner's exit status: 1 if a ✅ claim failed, else 0.
    pub fn status(&self) -> i32 {
        i32::from(!self.failed.is_empty())
    }
}

/// One JSON document holding every figure's tables and claim verdicts.
pub fn to_json(figs: &[Figure], tables: &[Vec<Table>]) -> String {
    let s = |x: &str| format!("\"{}\"", json::escape(x));
    let num = |v: &f64| {
        if v.is_finite() {
            v.to_string()
        } else {
            "null".into()
        }
    };
    let list = |items: Vec<String>| items.join(", ");
    let table = |t: &Table| {
        let rows = t.rows.iter().map(|r| {
            let values = list(r.values.iter().map(num).collect());
            format!("{{\"label\": {}, \"values\": [{values}]}}", s(&r.label))
        });
        let headers = list(t.headers.iter().map(|h| s(h)).collect());
        let rows = list(rows.collect());
        format!(
            "{{\"name\": {}, \"title\": {}, \"headers\": [{headers}], \"rows\": [{rows}]}}",
            s(t.name),
            s(t.title)
        )
    };
    let figures = figs.iter().zip(tables).map(|(f, ts)| {
        let claims = f.claims.iter().map(|c| {
            let (mark, text, holds) = (s(c.mark.symbol()), s(c.text), (c.holds)(ts));
            format!("{{\"mark\": {mark}, \"claim\": {text}, \"holds\": {holds}}}")
        });
        let tables = list(ts.iter().map(table).collect());
        let claims = list(claims.collect());
        let name = s(f.name);
        format!("    {{\"name\": {name}, \"tables\": [{tables}], \"claims\": [{claims}]}}")
    });
    let figures: Vec<String> = figures.collect();
    format!("{{\n  \"figures\": [\n{}\n  ]\n}}\n", figures.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_figure_cell_is_a_valid_machine_and_the_set_has_228_cells() {
        let figs = all();
        for f in &figs {
            for p in &f.cells {
                if let Err(e) = p.cfg.validate() {
                    panic!("{}: {}: {e}", f.name, p.label);
                }
            }
        }
        let cells = || figs.iter().flat_map(|f| &f.cells);
        let keys: HashSet<u64> = cells().map(point_key).collect();
        assert_eq!(keys.len(), 228);
        // One label per distinct cell: as many labels as keys, and as
        // many (label, key) pairs, so no label names two cells.
        let labels: HashSet<&str> = cells().map(|p| p.label.as_str()).collect();
        assert_eq!(labels.len(), 228, "labels shared between cells");
        let pairs: HashSet<(&str, u64)> =
            cells().map(|p| (p.label.as_str(), point_key(p))).collect();
        assert_eq!(pairs.len(), 228, "one cell under two labels");
    }

    #[test]
    fn every_table_figure_and_claim_has_a_unique_name() {
        let figs = all();
        let names: HashSet<&str> = figs.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), figs.len());
        let claims: HashSet<&str> = figs
            .iter()
            .flat_map(|f| &f.claims)
            .map(|c| c.text)
            .collect();
        assert_eq!(
            claims.len(),
            figs.iter().map(|f| f.claims.len()).sum::<usize>()
        );
    }

    #[test]
    fn every_experiments_mark_has_exactly_one_claim() {
        // The figure sections run from Tables 1–3 to the sweep engine's.
        let doc = include_str!("../EXPERIMENTS.md");
        let start = doc.find("\n## Tables 1").expect("Tables section");
        let end = doc
            .find("\n## Sweep engine")
            .expect("end of the figure sections");
        let sections = &doc[start..end];
        let figs = all();
        for mark in [Mark::Reproduced, Mark::Partial, Mark::Deviates] {
            let claims = figs.iter().flat_map(|f| &f.claims);
            assert_eq!(
                sections.matches(mark.symbol()).count(),
                claims.filter(|c| c.mark == mark).count(),
                "{} marks in EXPERIMENTS.md vs claims",
                mark.symbol()
            );
        }
        for f in figs.iter().filter(|f| !f.claims.is_empty()) {
            let heading = format!("`{}`)", f.name);
            let named = sections.lines().any(|l| {
                l.starts_with("## ")
                    && (l.contains(&heading) || l.contains(&format!("`{}`,", f.name)))
            });
            assert!(named, "no EXPERIMENTS.md heading names {}", f.name);
        }
    }

    #[test]
    fn unknown_figure_names_the_valid_ones() {
        let err = select(&["fig6".into(), "fig99".into()]).unwrap_err();
        assert!(err.contains("fig99") && err.contains("fig5") && err.contains("summary"));
        let picked = select(&["fig15".into(), "tables".into()]).unwrap();
        let names: Vec<&str> = picked.iter().map(|f| f.name).collect();
        assert_eq!(names, ["tables", "fig15"]);
    }

    #[test]
    fn the_latency_tables_hold_without_a_simulation() {
        let fig = tables();
        let mut v = Verdicts::default();
        v.judge(&fig, &(fig.tables)(&[]));
        assert_eq!(v.failed, Vec::<String>::new(), "{:?}", v.lines);
        assert_eq!(v.status(), 0);
    }

    /// A Fig. 15 table in which NetCache's run time grows the most.
    fn fabricated_fig15() -> Vec<Table> {
        let rows = TREND_APPS
            .iter()
            .flat_map(|app| {
                TREND_ARCHS.map(|(_, s)| {
                    let growth = if s == "N" { 90.0 } else { 20.0 };
                    Row {
                        label: format!("{}-{s}", app.name()),
                        values: vec![100.0, 150.0, 100.0 + growth, growth],
                    }
                })
            })
            .collect();
        vec![Table::new(("fig15_mem_latency", "fabricated", &[]), rows)]
    }

    #[test]
    fn a_failing_reproduced_claim_is_reported_and_exits_one() {
        let fig = fig15();
        assert_eq!(fig.claims[0].mark, Mark::Reproduced);
        let mut v = Verdicts::default();
        v.judge(&fig, &fabricated_fig15());
        assert_eq!(v.status(), 1);
        assert_eq!(
            v.failed,
            ["fig15: NetCache's run time grows the least from 44 to 108 pcycles, on both apps"]
        );
        assert!(v.lines[0].starts_with("✅ FAILS"), "{}", v.lines[0]);
        assert!(v.lines[0].contains(&v.failed[0]));
    }

    #[test]
    fn a_deviating_claim_reports_without_failing() {
        let mut fig = fig15();
        fig.claims[0].mark = Mark::Partial;
        let mut v = Verdicts::default();
        v.judge(&fig, &fabricated_fig15());
        assert_eq!(v.status(), 0);
        assert!(
            v.lines[0].starts_with("🟡 still deviating"),
            "{}",
            v.lines[0]
        );
    }

    #[test]
    fn json_document_parses() {
        let figs = select(&["tables".into()]).unwrap();
        let tables: Vec<Vec<Table>> = figs.iter().map(|f| (f.tables)(&[])).collect();
        let doc = json::parse(&to_json(&figs, &tables)).expect("valid JSON");
        let json::Value::Arr(figs) = doc.get("figures").unwrap() else {
            panic!("figures must be an array")
        };
        assert_eq!(figs[0].get("name").and_then(|v| v.as_str()), Some("tables"));
    }
}
