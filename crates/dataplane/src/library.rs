//! A library of realistic data plane programs.
//!
//! These stand in for the ten `switch.p4`-derived programs of the paper's
//! evaluation. Each models a well-known data plane function with the MAT
//! structure, dependency shape, and Table-I metadata sizes that function
//! uses in practice. Several programs deliberately share structurally
//! identical tables (e.g. the 5-tuple hash) so that TDG merging has real
//! redundancy to eliminate.

// The crate-level clippy.toml bans unwrap/expect so that parsing and
// deserializing can never panic; these constant programs keep their
// `expect`s, which the tests exercise on every table.
#![allow(clippy::disallowed_methods)]

use crate::action::{Action, PrimitiveOp};
use crate::fields::{headers, metadata, Field};
use crate::mat::{Mat, MatchKind, Rule};
use crate::program::Program;

/// The shared 5-tuple hash table: computes a 4-byte counter index from the
/// IPv4 5-tuple. Identical (same signature) across every program that calls
/// it, which is exactly the redundancy SPEED-style merging exploits.
pub fn hash_5tuple_mat() -> Mat {
    let idx = Field::metadata("meta.hash_idx", metadata::COUNTER_INDEX_BYTES);
    Mat::builder("hash_5tuple")
        .action(Action::new("compute").with_op(PrimitiveOp::Hash {
            dst: idx,
            srcs: vec![
                headers::ipv4_src(),
                headers::ipv4_dst(),
                headers::ipv4_proto(),
                headers::l4_sport(),
                headers::l4_dport(),
            ],
        }))
        .rule(Rule::new(Vec::<String>::new(), "compute"))
        .capacity(1)
        .resource(0.40)
        .build()
        .expect("static table")
}

fn expect(mat: crate::mat::MatBuilder) -> Mat {
    mat.build().expect("library tables are statically valid")
}

/// Basic L3 router: VLAN/port mapping, LPM route lookup producing a next-hop
/// index, and next-hop resolution consuming it (a match dependency carrying
/// 4 B of metadata). Mirrors the `switch.p4` L3 slice.
pub fn l3_router() -> Program {
    let nexthop = Field::metadata("meta.nexthop", 4);
    let port_vlan = expect(
        Mat::builder("port_vlan")
            .match_field(headers::vlan_id(), MatchKind::Exact)
            .action(Action::writing("set_vrf", [Field::metadata("meta.vrf", 2)]))
            .capacity(512)
            .resource(0.90),
    );
    let ipv4_lpm = expect(
        Mat::builder("ipv4_lpm")
            .match_field(Field::metadata("meta.vrf", 2), MatchKind::Exact)
            .match_field(headers::ipv4_dst(), MatchKind::Lpm)
            .action(Action::writing("set_nexthop", [nexthop.clone()]))
            .rule(Rule::new(["0", "10.0.0.0/8"], "set_nexthop"))
            .capacity(4096)
            .resource(2.70),
    );
    let nexthop_tbl = expect(
        Mat::builder("nexthop")
            .match_field(nexthop, MatchKind::Exact)
            .action(
                Action::new("rewrite")
                    .with_op(PrimitiveOp::Compute { dst: headers::eth_dst(), srcs: vec![] })
                    .with_op(PrimitiveOp::Compute {
                        dst: headers::ipv4_ttl(),
                        srcs: vec![headers::ipv4_ttl()],
                    }),
            )
            .capacity(1024)
            .resource(1.50),
    );
    Program::builder("l3_router")
        .table(port_vlan)
        .table(ipv4_lpm)
        .table(nexthop_tbl)
        .build()
        .expect("static program")
}

/// Stateless ACL: a ternary 5-tuple classifier emitting a 1-byte verdict,
/// followed by a verdict-keyed statistics table (match dependency).
pub fn acl() -> Program {
    let verdict = Field::metadata("meta.acl_verdict", 1);
    let classify = expect(
        Mat::builder("acl_classify")
            .match_field(headers::ipv4_src(), MatchKind::Ternary)
            .match_field(headers::ipv4_dst(), MatchKind::Ternary)
            .match_field(headers::l4_dport(), MatchKind::Range)
            .action(Action::writing("permit", [verdict.clone()]))
            .action(
                Action::new("deny")
                    .with_op(PrimitiveOp::Compute { dst: verdict.clone(), srcs: vec![] })
                    .with_op(PrimitiveOp::Drop),
            )
            .capacity(2048)
            .resource(3.00),
    );
    let stats = expect(
        Mat::builder("acl_stats")
            .match_field(verdict, MatchKind::Exact)
            .action(Action::new("count").with_op(PrimitiveOp::RegisterOp {
                index: Field::metadata("meta.acl_verdict", 1),
                out: None,
            }))
            .capacity(4)
            .resource(0.60),
    );
    Program::builder("acl").table(classify).table(stats).build().expect("static program")
}

/// Source NAT: lookup writes the translated address and a hit flag; the
/// rewrite stage consumes both (match dependency, 5 B).
pub fn nat() -> Program {
    let new_src = Field::metadata("meta.nat_src", 4);
    let hit = Field::metadata("meta.nat_hit", 1);
    let lookup = expect(
        Mat::builder("nat_lookup")
            .match_field(headers::ipv4_src(), MatchKind::Exact)
            .match_field(headers::l4_sport(), MatchKind::Exact)
            .action(Action::writing("translate", [new_src.clone(), hit.clone()]))
            .capacity(8192)
            .resource(2.40),
    );
    let rewrite = expect(
        Mat::builder("nat_rewrite")
            .match_field(hit, MatchKind::Exact)
            .action(
                Action::new("apply")
                    .with_op(PrimitiveOp::Copy { dst: headers::ipv4_src(), src: new_src }),
            )
            .capacity(2)
            .resource(0.60),
    );
    Program::builder("nat").table(lookup).table(rewrite).build().expect("static program")
}

/// Tunnel termination: decap decision, tunnel-id lookup (4 B metadata), and
/// re-encapsulation keyed on the tunnel id.
pub fn tunnel() -> Program {
    let tid = Field::metadata("meta.tunnel_id", 4);
    let decap = expect(
        Mat::builder("tunnel_decap")
            .match_field(headers::ipv4_proto(), MatchKind::Exact)
            .action(Action::writing("mark", [Field::metadata("meta.decap", 1)]))
            .capacity(16)
            .resource(0.60),
    );
    let term = expect(
        Mat::builder("tunnel_term")
            .match_field(Field::metadata("meta.decap", 1), MatchKind::Exact)
            .match_field(headers::ipv4_dst(), MatchKind::Exact)
            .action(Action::writing("set_tunnel", [tid.clone()]))
            .capacity(4096)
            .resource(2.10),
    );
    let encap = expect(
        Mat::builder("tunnel_encap")
            .match_field(tid, MatchKind::Exact)
            .action(
                Action::new("encap")
                    .with_op(PrimitiveOp::Compute { dst: headers::ipv4_dst(), srcs: vec![] }),
            )
            .capacity(4096)
            .resource(2.10),
    );
    Program::builder("tunnel")
        .table(decap)
        .table(term)
        .table(encap)
        .build()
        .expect("static program")
}

/// ECMP load balancer: shared 5-tuple hash, group selection (2 B member
/// index), and member resolution (4 B next hop).
pub fn ecmp_lb() -> Program {
    let member = Field::metadata("meta.ecmp_member", 2);
    let nexthop = Field::metadata("meta.lb_nexthop", 4);
    let group = expect(
        Mat::builder("ecmp_group")
            .match_field(Field::metadata("meta.hash_idx", 4), MatchKind::Exact)
            .match_field(headers::ipv4_dst(), MatchKind::Lpm)
            .action(Action::writing("pick_member", [member.clone()]))
            .capacity(1024)
            .resource(1.80),
    );
    let resolve = expect(
        Mat::builder("ecmp_member")
            .match_field(member, MatchKind::Exact)
            .action(Action::writing("set_nh", [nexthop.clone()]))
            .capacity(256)
            .resource(0.90),
    );
    let forward = expect(
        Mat::builder("ecmp_forward")
            .match_field(nexthop, MatchKind::Exact)
            .action(
                Action::new("fw")
                    .with_op(PrimitiveOp::Forward { port: Field::metadata("meta.egress_port", 2) }),
            )
            .capacity(256)
            .resource(0.90),
    );
    Program::builder("ecmp_lb")
        .table(hash_5tuple_mat())
        .table(group)
        .table(resolve)
        .table(forward)
        .build()
        .expect("static program")
}

/// In-band network telemetry: the source stage stamps switch id (4 B),
/// timestamps (12 B), and queue lengths (6 B); transit aggregates them; the
/// sink is gated on a report decision — the heaviest metadata producer in
/// the library, as INT is in the paper's motivation.
pub fn int_telemetry() -> Program {
    let swid = metadata::switch_identifier("meta.int_swid");
    let ts = metadata::timestamps("meta.int_ts");
    let qlen = metadata::queue_lengths("meta.int_qlen");
    let report = Field::metadata("meta.int_report", 1);
    let source = expect(
        Mat::builder("int_source")
            .match_field(headers::ipv4_dscp(), MatchKind::Exact)
            .action(Action::writing("stamp", [swid.clone(), ts.clone(), qlen.clone()]))
            .capacity(64)
            .resource(1.20),
    );
    let transit = expect(
        Mat::builder("int_transit")
            .match_field(swid.clone(), MatchKind::Exact)
            .action(Action::new("aggregate").with_op(PrimitiveOp::Compute {
                dst: report.clone(),
                srcs: vec![ts.clone(), qlen.clone()],
            }))
            .capacity(64)
            .resource(1.50),
    );
    let sink = expect(
        Mat::builder("int_sink")
            .match_field(report.clone(), MatchKind::Exact)
            .action(
                Action::new("emit")
                    .with_op(PrimitiveOp::Forward { port: Field::metadata("meta.mirror_port", 2) }),
            )
            .capacity(8)
            .resource(0.60),
    );
    Program::builder("int_telemetry")
        .table(source)
        .table(transit)
        .table(sink)
        .gate("int_transit", "int_sink")
        .build()
        .expect("static program")
}

/// Stateful firewall: shared 5-tuple hash indexes a connection-state
/// register; the decision table is gated on the looked-up state.
pub fn stateful_firewall() -> Program {
    let state = Field::metadata("meta.conn_state", 1);
    let conn_state = expect(
        Mat::builder("conn_state")
            .match_field(headers::tcp_flags(), MatchKind::Ternary)
            .action(Action::new("lookup").with_op(PrimitiveOp::RegisterOp {
                index: Field::metadata("meta.hash_idx", 4),
                out: Some(state.clone()),
            }))
            .capacity(16)
            .resource(1.80),
    );
    let decision = expect(
        Mat::builder("fw_decision")
            .match_field(state, MatchKind::Exact)
            .action(Action::new("allow"))
            .action(Action::new("deny").with_op(PrimitiveOp::Drop))
            .capacity(8)
            .resource(0.60),
    );
    Program::builder("stateful_firewall")
        .table(hash_5tuple_mat())
        .table(conn_state)
        .table(decision)
        .gate("conn_state", "fw_decision")
        .build()
        .expect("static program")
}

/// Two-rate three-color QoS meter: classification (1 B class), metering
/// (1 B color), and a policer gated on the color.
pub fn qos_meter() -> Program {
    let class = Field::metadata("meta.qos_class", 1);
    let color = Field::metadata("meta.qos_color", 1);
    let classify = expect(
        Mat::builder("qos_classify")
            .match_field(headers::ipv4_dscp(), MatchKind::Exact)
            .match_field(headers::l4_dport(), MatchKind::Range)
            .action(Action::writing("set_class", [class.clone()]))
            .capacity(256)
            .resource(1.20),
    );
    let meter = expect(
        Mat::builder("qos_meter")
            .match_field(class, MatchKind::Exact)
            .action(Action::new("meter").with_op(PrimitiveOp::RegisterOp {
                index: Field::metadata("meta.qos_class", 1),
                out: Some(color.clone()),
            }))
            .capacity(256)
            .resource(1.50),
    );
    let police = expect(
        Mat::builder("qos_police")
            .match_field(color, MatchKind::Exact)
            .action(Action::new("pass"))
            .action(Action::new("drop").with_op(PrimitiveOp::Drop))
            .capacity(4)
            .resource(0.60),
    );
    Program::builder("qos_meter")
        .table(classify)
        .table(meter)
        .table(police)
        .gate("qos_meter", "qos_police")
        .build()
        .expect("static program")
}

/// Count-min sketch over the 5-tuple (software-defined measurement).
pub fn cm_sketch() -> Program {
    sketches::count_min()
}

/// Elastic-sketch heavy-hitter detection (software-defined measurement).
pub fn hh_detect() -> Program {
    sketches::elastic()
}

/// The ten "real" programs used in testbed experiments (Exp#1), analogous to
/// the ten `switch.p4` variants of the paper.
pub fn real_programs() -> Vec<Program> {
    vec![
        l3_router(),
        acl(),
        nat(),
        tunnel(),
        ecmp_lb(),
        int_telemetry(),
        stateful_firewall(),
        qos_meter(),
        cm_sketch(),
        hh_detect(),
    ]
}

/// In-network compute workloads: P4COM-style aggregation and
/// map/reduce-on-switch programs whose state accesses exercise every point
/// of the state-access lattice (`ReadOnly`, `ReadMostlyReplicable`,
/// `CommutativeUpdate`, `SingleWriter`). These are the workloads whose
/// placements the `RelaxedState` TDG mode is allowed to improve.
pub mod aggregation {
    use super::*;
    use crate::action::FoldOp;

    /// All-reduce aggregation (P4COM style): three heavy worker stages each
    /// fold their rank's contribution (a header field, so `ReadOnly`) into
    /// one shared sum with `fold_add` — a `CommutativeUpdate` accumulator —
    /// and an emit stage consumes the total. Worker→worker dependencies
    /// exist only through the accumulator, so they are exactly the edges
    /// relaxation may drop; worker→emit edges must keep their bytes.
    pub fn allreduce() -> Program {
        let val = Field::header("pkt.val", 4);
        let sum = Field::metadata("meta.agg_sum", 4);
        // Rank-specific action names keep the workers structurally
        // distinct: they aggregate different ranks' traffic, so the TDG
        // merge must not fold them into one MAT.
        let worker = |i: usize| {
            expect(
                Mat::builder(format!("agg_rank{i}"))
                    .action(Action::new(format!("accumulate_rank{i}")).with_op(PrimitiveOp::Fold {
                        dst: sum.clone(),
                        srcs: vec![val.clone()],
                        op: FoldOp::Add,
                    }))
                    .capacity(16)
                    .resource(5.0),
            )
        };
        let emit = expect(
            Mat::builder("agg_emit")
                .action(
                    Action::new("report")
                        .with_op(PrimitiveOp::Compute {
                            dst: Field::header("pkt.result", 4),
                            srcs: vec![sum.clone()],
                        })
                        .with_op(PrimitiveOp::Forward {
                            port: Field::metadata("meta.agg_port", 2),
                        }),
                )
                .capacity(4)
                .resource(0.6),
        );
        Program::builder("allreduce")
            .table(worker(0))
            .table(worker(1))
            .table(worker(2))
            .table(emit)
            .build()
            .expect("static program")
    }

    /// Map/reduce word count on switch: a replicable hash stage keys the
    /// packet (`ReadMostlyReplicable` once merged with its consumers),
    /// two map stages `fold_add` per-key counts (`CommutativeUpdate`),
    /// and a reduce stage reads the count.
    pub fn wordcount() -> Program {
        let key = Field::metadata("meta.wc_key", 4);
        let count = Field::metadata("meta.wc_count", 4);
        let hash = expect(
            Mat::builder("wc_hash")
                .action(Action::new("key").with_op(PrimitiveOp::Hash {
                    dst: key.clone(),
                    srcs: vec![headers::ipv4_src(), headers::ipv4_dst()],
                }))
                .capacity(1)
                .resource(0.4),
        );
        let map = |i: usize| {
            expect(
                Mat::builder(format!("wc_map{i}"))
                    .match_field(key.clone(), MatchKind::Exact)
                    .action(Action::new(format!("count{i}")).with_op(PrimitiveOp::Fold {
                        dst: count.clone(),
                        srcs: vec![Field::header("pkt.tokens", 2)],
                        op: FoldOp::Add,
                    }))
                    .capacity(1024)
                    .resource(2.0),
            )
        };
        let reduce = expect(
            Mat::builder("wc_reduce")
                .action(Action::new("emit").with_op(PrimitiveOp::Compute {
                    dst: Field::header("pkt.wc_out", 4),
                    srcs: vec![count.clone()],
                }))
                .capacity(4)
                .resource(0.6),
        );
        Program::builder("wordcount")
            .table(hash)
            .table(map(0))
            .table(map(1))
            .table(reduce)
            .build()
            .expect("static program")
    }

    /// Network-wide peak telemetry: transit stages `fold_max` the observed
    /// queue depth (`CommutativeUpdate` via max), while an EWMA stage keeps
    /// a self-referential smoothed value — `meta.tm_ewma = f(meta.tm_ewma,
    /// depth)` is order-sensitive and stays `SingleWriter`.
    pub fn telemetry_max() -> Program {
        let depth = Field::header("pkt.qdepth", 4);
        let peak = Field::metadata("meta.tm_peak", 4);
        let ewma = Field::metadata("meta.tm_ewma", 4);
        let transit = |i: usize| {
            expect(
                Mat::builder(format!("tm_transit{i}"))
                    .action(Action::new(format!("peak{i}")).with_op(PrimitiveOp::Fold {
                        dst: peak.clone(),
                        srcs: vec![depth.clone()],
                        op: FoldOp::Max,
                    }))
                    .capacity(8)
                    .resource(1.2),
            )
        };
        let smooth = expect(
            Mat::builder("tm_smooth")
                .action(Action::new("ewma").with_op(PrimitiveOp::Compute {
                    dst: ewma.clone(),
                    srcs: vec![ewma.clone(), depth.clone()],
                }))
                .capacity(8)
                .resource(1.2),
        );
        let sink = expect(
            Mat::builder("tm_sink")
                .match_field(peak.clone(), MatchKind::Range)
                .action(Action::new("report").with_op(PrimitiveOp::Compute {
                    dst: Field::header("pkt.tm_report", 4),
                    srcs: vec![peak.clone(), ewma.clone()],
                }))
                .capacity(16)
                .resource(0.9),
        );
        Program::builder("telemetry_max")
            .table(transit(0))
            .table(transit(1))
            .table(smooth)
            .table(sink)
            .build()
            .expect("static program")
    }

    /// Replicated-config lookup (Cascone-style read-mostly state): one
    /// stage writes a small policy epoch with a constant (idempotent, no
    /// packet-varying inputs), and three independent consumers match on
    /// it. With more readers than writers and only idempotent writes the
    /// field is `ReadMostlyReplicable`: each consumer's switch can
    /// replicate the producer instead of carrying the value.
    pub fn replicated_config() -> Program {
        let epoch = Field::metadata("meta.cfg_epoch", 1);
        let set = expect(
            Mat::builder("cfg_set")
                .action(Action::new("epoch").with_op(PrimitiveOp::SetConst { dst: epoch.clone() }))
                .capacity(1)
                .resource(0.3),
        );
        let consumer = |name: &str| {
            expect(
                Mat::builder(name.to_owned())
                    .match_field(epoch.clone(), MatchKind::Exact)
                    .action(Action::new("apply"))
                    .capacity(64)
                    .resource(0.9),
            )
        };
        Program::builder("replicated_config")
            .table(set)
            .table(consumer("cfg_acl"))
            .table(consumer("cfg_route"))
            .table(consumer("cfg_qos"))
            .build()
            .expect("static program")
    }

    /// The aggregation/map-reduce workload suite. Deliberately *not* part
    /// of [`real_programs`]: that set reproduces the paper's testbed
    /// workload and its goldens are pinned.
    pub fn all() -> Vec<Program> {
        vec![allreduce(), wordcount(), telemetry_max(), replicated_config()]
    }
}

/// Sketch-based measurement programs (Exp#6 deploys ten of them).
pub mod sketches {
    use super::*;

    /// Builds a generic `d`-row sketch program: one shared 5-tuple hash
    /// stage, `extra_hash` additional per-row hash stages (each producing a
    /// 4-byte index), and one stateful update stage per row consuming the
    /// corresponding index (match dependencies of 4 B each).
    pub fn generic(name: &str, rows: usize, per_row_resource: f64) -> Program {
        assert!(rows >= 1, "a sketch needs at least one row");
        let mut builder = Program::builder(name.to_owned()).table(hash_5tuple_mat());
        for r in 0..rows {
            let idx = if r == 0 {
                Field::metadata("meta.hash_idx", 4)
            } else {
                let idx = Field::metadata(format!("meta.{name}_idx{r}"), 4);
                let hash = expect(
                    Mat::builder(format!("{name}_hash{r}"))
                        .action(Action::new("compute").with_op(PrimitiveOp::Hash {
                            dst: idx.clone(),
                            srcs: vec![headers::ipv4_src(), headers::ipv4_dst()],
                        }))
                        .capacity(1)
                        .resource(0.20),
                );
                builder = builder.table(hash);
                idx
            };
            // The action name carries the sketch name: each sketch updates
            // its own register array, so update stages of different sketches
            // are NOT redundant even when they share the row-0 hash index.
            let update = expect(
                Mat::builder(format!("{name}_update{r}"))
                    .match_field(idx.clone(), MatchKind::Exact)
                    .action(
                        Action::new(format!("bump_{name}"))
                            .with_op(PrimitiveOp::RegisterOp { index: idx, out: None }),
                    )
                    .capacity(4)
                    .resource(per_row_resource),
            );
            builder = builder.table(update);
        }
        builder.build().expect("static sketch program")
    }

    /// Count-min sketch (3 rows).
    pub fn count_min() -> Program {
        generic("cm_sketch", 3, 0.50)
    }
    /// Count sketch (3 rows, signed counters).
    pub fn count_sketch() -> Program {
        generic("count_sketch", 3, 0.60)
    }
    /// Elastic sketch: heavy part + light part (2 rows).
    pub fn elastic() -> Program {
        generic("elastic", 2, 0.70)
    }
    /// UnivMon universal sketch (4 levels).
    pub fn univmon() -> Program {
        generic("univmon", 4, 0.50)
    }
    /// MV-Sketch invertible heavy-flow sketch (2 rows).
    pub fn mv_sketch() -> Program {
        generic("mv_sketch", 2, 0.60)
    }
    /// HashPipe heavy-hitter pipeline (3 stages).
    pub fn hashpipe() -> Program {
        generic("hashpipe", 3, 0.40)
    }
    /// FlowRadar encoded flowset (2 rows).
    pub fn flowradar() -> Program {
        generic("flowradar", 2, 0.80)
    }
    /// Deltoid hierarchical heavy hitters (3 rows).
    pub fn deltoid() -> Program {
        generic("deltoid", 3, 0.50)
    }
    /// K-ary sketch for change detection (3 rows).
    pub fn kary() -> Program {
        generic("kary", 3, 0.50)
    }
    /// SpaceSaving top-k (2 rows).
    pub fn spacesaving() -> Program {
        generic("spacesaving", 2, 0.60)
    }

    /// The ten sketches deployed in Exp#6.
    pub fn all() -> Vec<Program> {
        vec![
            count_min(),
            count_sketch(),
            elastic(),
            univmon(),
            mv_sketch(),
            hashpipe(),
            flowradar(),
            deltoid(),
            kary(),
            spacesaving(),
        ]
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    #[test]
    fn ten_real_programs() {
        let progs = real_programs();
        assert_eq!(progs.len(), 10);
        let names: std::collections::BTreeSet<_> =
            progs.iter().map(|p| p.name().to_owned()).collect();
        assert_eq!(names.len(), 10, "program names must be unique");
    }

    #[test]
    fn ten_sketches() {
        assert_eq!(sketches::all().len(), 10);
    }

    #[test]
    fn aggregation_suite_is_well_formed() {
        let progs = aggregation::all();
        assert_eq!(progs.len(), 4);
        let names: std::collections::BTreeSet<_> =
            progs.iter().map(|p| p.name().to_owned()).collect();
        assert_eq!(names.len(), 4, "program names must be unique");
        // The suite rides alongside the paper's testbed set, not inside it.
        for p in &progs {
            assert!(!real_programs().iter().any(|r| r.name() == p.name()));
        }
    }

    #[test]
    fn allreduce_workers_share_one_commutative_accumulator() {
        let p = aggregation::allreduce();
        let sum = Field::metadata("meta.agg_sum", 4);
        for i in 0..3 {
            let w = p.table(&format!("agg_rank{i}")).unwrap();
            assert!(w.written_fields().contains(&sum));
            let folds: Vec<_> =
                w.actions().iter().flat_map(|a| a.ops()).filter_map(|op| op.fold_op()).collect();
            assert_eq!(folds, vec![crate::action::FoldOp::Add]);
        }
        // Same-kind folds everywhere: the multi-writer lint stays quiet.
        let findings = crate::lint::lint(&p);
        assert!(
            !findings
                .iter()
                .any(|l| matches!(l, crate::lint::Lint::NonCommutativeMultiWriter { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn aggregation_suite_composes_cleanly_for_serious_lints() {
        let findings = crate::lint::lint_composition(&aggregation::all());
        assert!(
            !findings.iter().any(|l| matches!(
                l,
                crate::lint::Lint::MetadataReadBeforeWrite { .. }
                    | crate::lint::Lint::TableWithoutActions { .. }
            )),
            "{findings:?}"
        );
    }

    #[test]
    fn shared_hash_table_is_redundant_across_programs() {
        let a = ecmp_lb();
        let b = stateful_firewall();
        let ha = a.table("hash_5tuple").unwrap();
        let hb = b.table("hash_5tuple").unwrap();
        assert_eq!(ha.signature(), hb.signature());
    }

    #[test]
    fn int_produces_table1_metadata() {
        let p = int_telemetry();
        let src = p.table("int_source").unwrap();
        // 4 (switch id) + 12 (timestamps) + 6 (queue lengths) = 22 bytes.
        assert_eq!(src.written_metadata_bytes(), 22);
    }

    #[test]
    fn every_program_fits_a_generous_switch() {
        // Sanity: no single library program exceeds a 12-stage switch on its
        // own (total resource <= 12 stages).
        for p in real_programs() {
            assert!(p.total_resource() <= 12.0, "{} too large", p.name());
        }
    }

    #[test]
    fn gates_are_declared_where_expected() {
        assert_eq!(int_telemetry().gates().len(), 1);
        assert_eq!(stateful_firewall().gates().len(), 1);
        assert_eq!(qos_meter().gates().len(), 1);
        assert!(l3_router().gates().is_empty());
    }

    #[test]
    fn sketch_rows_scale_table_count() {
        // generic(name, rows): 1 shared hash + (rows-1) extra hashes + rows updates.
        let p = sketches::generic("s", 3, 0.2);
        assert_eq!(p.tables().len(), 1 + 2 + 3);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_row_sketch_panics() {
        let _ = sketches::generic("s", 0, 0.2);
    }
}
