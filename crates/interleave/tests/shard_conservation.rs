//! Exhaustive interleaving checks over the sharded-anonymiser protocol.
//!
//! The pipeline's differential tests prove the sharded tail
//! byte-identical to the serial anonymiser on the schedules the OS
//! happens to produce. These models check *all* schedules of the
//! shard/assembler protocol at its real atomicity. Every shard gets
//! every item in capture order: two batches with a checkpoint cut
//! between them. A shard's `resolve_batch` is one linearizable unit (the
//! shard owns its state exclusively), and so is passing the cut on. The
//! assembler reads the shards' ordered outputs in lockstep: one round
//! per item, one unit on the assembler thread (it blocks until every
//! shard's answer to that item has arrived). The invariants are the
//! protocol's conservation laws:
//!
//! * **disjoint ownership** — no id-array index is resolved by two
//!   shards, in any interleaving;
//! * **order-of-appearance** — after every assembled batch, the global
//!   appearance orders equal the serial anonymiser's prefix exactly,
//!   regardless of how shard resolutions interleaved;
//! * **the cut** — every shard passes the cut on in order, and the
//!   assembler's orders at the cut equal the serial orders of the
//!   batch before it;
//! * **completeness** — every schedule assembles every item, and ends
//!   with orders identical to the serial run over the concatenated
//!   stream.
//!
//! A deliberately broken fixture — two shard workers both owning slice
//! zero — proves the checker catches double resolution rather than
//! vacuously passing.

use etw_anonymize::fileid::{ByteSelector, FileIdAnonymizer};
use etw_anonymize::{build_sharded, Assembler, DirectArrayAnonymizer, ShardSet};
use etw_edonkey::ids::{ClientId, FileId};
use etw_interleave::{multinomial, Model, Step};
use std::rc::Rc;

const WIDTH_BITS: u32 = 8;
const SELECTOR: ByteSelector = ByteSelector::FIRST_TWO;

/// Items in capture order: the cut sits between the two batches.
const CUT_AT: usize = 1;
const ITEMS: usize = 3;

/// The staged id streams the sequential stage would fan out: two
/// batches with repeats within and across batches, touching both
/// shards' slices of both id spaces.
fn batches() -> Vec<(Vec<u32>, Vec<FileId>)> {
    vec![
        (
            vec![5, 2, 5, 7],
            vec![FileId([0x10; 16]), FileId([0x21; 16])],
        ),
        (vec![2, 9, 4], vec![FileId([0x21; 16]), FileId([0x32; 16])]),
    ]
}

/// What the serial anonymiser produces over the concatenated streams:
/// the appearance orders every schedule must reproduce.
fn serial_orders(batches: &[(Vec<u32>, Vec<FileId>)]) -> (Vec<u32>, Vec<FileId>) {
    let mut clients = DirectArrayAnonymizer::new(WIDTH_BITS);
    let mut files = etw_anonymize::BucketedArrays::new(SELECTOR);
    for (cids, fids) in batches {
        for &c in cids {
            use etw_anonymize::clientid::ClientIdAnonymizer;
            clients.anonymize(ClientId(c));
        }
        for f in fids {
            files.anonymize(f);
        }
    }
    (clients.appearance_order(), files.appearance_order())
}

/// One shard's answer to one item, waiting in its output queue.
enum Answer {
    /// Sparse resolutions for a batch: `(index, provisional)` pairs for
    /// clientIDs and fileIDs.
    Resolved(Vec<(u32, u32)>, Vec<(u32, u64)>),
    /// The cut, passed on unchanged.
    Cut,
}

/// What every schedule must reproduce: the serial orders over the
/// whole stream, and over the batches before the cut.
struct Expected {
    clients: Vec<u32>,
    files: Vec<FileId>,
    at_cut: (Vec<u32>, Vec<FileId>),
}

/// Shared state: the shard pool, the in-flight answers ("channels"),
/// the assembler, and the bookkeeping the invariants read.
struct ShardPipe {
    batches: Vec<(Vec<u32>, Vec<FileId>)>,
    shards: Vec<ShardSet>,
    /// `answers[item][shard]`: delivered, not yet consumed.
    answers: Vec<Vec<Option<Answer>>>,
    /// Per shard, the next item it will handle (program order).
    resolved_upto: Vec<usize>,
    asm: Assembler,
    /// Items fully assembled so far (strictly in sequence).
    assembled: usize,
    /// The assembler's orders when it took the cut.
    cut_orders: Option<(Vec<u32>, Vec<FileId>)>,
    expected: Rc<Expected>,
    /// Protocol violations observed by the steps themselves.
    errors: Vec<String>,
}

impl ShardPipe {
    fn new(shards: Vec<ShardSet>, asm: Assembler, expected: Rc<Expected>) -> ShardPipe {
        let answers = (0..ITEMS)
            .map(|_| shards.iter().map(|_| None).collect())
            .collect();
        let resolved_upto = vec![0; shards.len()];
        ShardPipe {
            batches: batches(),
            shards,
            answers,
            resolved_upto,
            asm,
            assembled: 0,
            cut_orders: None,
            expected,
            errors: Vec::new(),
        }
    }

    /// The assembler's per-item round: a no-op while any shard's answer
    /// to the next item is outstanding (the real thread blocks on that
    /// shard's queue), else take the round. A round of cuts records the
    /// orders; a round of resolutions gathers, remaps, and checks the
    /// order prefix.
    fn try_assemble(&mut self) -> bool {
        if self.assembled >= ITEMS {
            return false;
        }
        let item = self.assembled;
        if self.answers[item].iter().any(|a| a.is_none()) {
            return false;
        }
        self.assembled += 1;
        let round: Vec<Answer> = self.answers[item]
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        if round.iter().all(|a| matches!(a, Answer::Cut)) {
            let orders = (
                self.asm.client_order().to_vec(),
                self.asm.file_order().to_vec(),
            );
            if orders != self.expected.at_cut {
                self.errors.push(format!(
                    "orders at the cut {:?} are not batch 0's serial orders",
                    orders.0
                ));
            }
            self.cut_orders = Some(orders);
            return true;
        }
        let b = if item < CUT_AT { item } else { item - 1 };
        let (cids, fids) = &self.batches[b];
        self.asm.begin_batch(cids.len(), fids.len());
        for answer in round {
            let Answer::Resolved(c, f) = answer else {
                self.errors
                    .push(format!("round {item} mixes a cut with resolutions"));
                return true;
            };
            self.asm.apply_clients(&c);
            self.asm.apply_files(&f);
        }
        let (cids, fids) = &self.batches[b];
        self.asm.finish_batch(cids, fids);
        let (clients, files) = (&self.expected.clients, &self.expected.files);
        let nc = self.asm.client_order().len();
        if nc > clients.len() || self.asm.client_order() != &clients[..nc] {
            self.errors.push(format!(
                "after batch {b} client order {:?} is not a serial prefix",
                self.asm.client_order()
            ));
        }
        let nf = self.asm.file_order().len();
        if nf > files.len() || self.asm.file_order() != &files[..nf] {
            self.errors
                .push(format!("after batch {b} file order is not a serial prefix"));
        }
        true
    }
}

/// Shard `s`'s next item: the cut, passed on, or a `resolve_batch`
/// call, checking that no index it resolves was already claimed by
/// another shard's delivered answer.
fn shard_step(s: usize) -> Step<ShardPipe> {
    Box::new(move |st: &mut ShardPipe| {
        let item = st.resolved_upto[s];
        st.resolved_upto[s] += 1;
        if item == CUT_AT {
            st.answers[item][s] = Some(Answer::Cut);
            return;
        }
        let b = if item < CUT_AT { item } else { item - 1 };
        let (mut c, mut f) = (Vec::new(), Vec::new());
        let (cids, fids) = &st.batches[b];
        st.shards[s].resolve_batch(cids, fids, &mut c, &mut f);
        for other in 0..st.answers[item].len() {
            if let Some(Answer::Resolved(oc, of)) = &st.answers[item][other] {
                for (idx, _) in &c {
                    if oc.iter().any(|(o, _)| o == idx) {
                        st.errors.push(format!(
                            "clientID index {idx} of batch {b} resolved by shards {other} and {s}"
                        ));
                    }
                }
                for (idx, _) in &f {
                    if of.iter().any(|(o, _)| o == idx) {
                        st.errors.push(format!(
                            "fileID index {idx} of batch {b} resolved by shards {other} and {s}"
                        ));
                    }
                }
            }
        }
        st.answers[item][s] = Some(Answer::Resolved(c, f));
    })
}

fn assembler_step() -> Step<ShardPipe> {
    Box::new(|st: &mut ShardPipe| {
        st.try_assemble();
    })
}

fn model(make_shards: impl Fn() -> (Vec<ShardSet>, Assembler) + 'static) -> Model<ShardPipe> {
    let n_shards = make_shards().0.len();
    // The serial runs are the same on every schedule: run them once.
    let all = batches();
    let (clients, files) = serial_orders(&all);
    let expected = Rc::new(Expected {
        clients,
        files,
        at_cut: serial_orders(&all[..CUT_AT]),
    });
    let mut m = Model::new(move || {
        let (shards, asm) = make_shards();
        ShardPipe::new(shards, asm, Rc::clone(&expected))
    });
    for s in 0..n_shards {
        m = m.thread(
            &format!("shard{s}"),
            (0..ITEMS).map(|_| shard_step(s)).collect(),
        );
    }
    m.thread(
        "assembler",
        // One step per item. A round taken before its answers are all
        // in is a no-op (it models the blocking recv), and the final
        // check drains what is left, so every point at which a round
        // can be taken is still explored.
        (0..ITEMS).map(|_| assembler_step()).collect(),
    )
    .invariant("no protocol violations", |st| {
        if st.errors.is_empty() {
            Ok(())
        } else {
            Err(st.errors.join("; "))
        }
    })
    .invariant("assembly never outruns resolution", |st| {
        let slowest = st.resolved_upto.iter().min().copied().unwrap_or(0);
        if st.assembled <= slowest {
            Ok(())
        } else {
            Err(format!(
                "assembled {} items but a shard has only handled {slowest}",
                st.assembled
            ))
        }
    })
    .check_final("all items assemble to the serial orders", |st| {
        // Drain: schedules that front-loaded the assembler's steps left
        // work pending — the real thread would still be blocked on its
        // queues, so finish it now.
        while st.try_assemble() {}
        if st.assembled != ITEMS {
            return Err(format!("only {} of {ITEMS} items assembled", st.assembled));
        }
        if !st.errors.is_empty() {
            return Err(st.errors.join("; "));
        }
        if st.cut_orders.as_ref() != Some(&st.expected.at_cut) {
            return Err("the cut's orders diverge from batch 0's serial orders".into());
        }
        if st.asm.client_order() != st.expected.clients {
            return Err(format!(
                "final client order {:?} != serial {:?}",
                st.asm.client_order(),
                st.expected.clients
            ));
        }
        if st.asm.file_order() != st.expected.files {
            return Err("final file order diverges from serial".into());
        }
        Ok(())
    })
}

#[test]
fn sharded_resolution_conserves_serial_orders_on_every_schedule() {
    let m = model(|| {
        let (shards, asm) = build_sharded(WIDTH_BITS, SELECTOR, 2, &[], &[]);
        (shards, asm)
    });
    let report = m.run().unwrap_or_else(|v| panic!("{v}"));
    // Thread lengths: 2 shards × 3 items, assembler 1 step per item.
    assert_eq!(report.schedules, multinomial(&[3, 3, 3]));
}

#[test]
fn resuming_shards_mid_stream_conserves_too() {
    // Shards rebuilt from a checkpoint prefix (the first batch's ids
    // already seen) must keep producing serial-prefix orders for the
    // remaining stream — the model replays the same batches, so the
    // restored state simply makes the repeats cache hits.
    let m = model(|| {
        let all = batches();
        let (prefix_c, prefix_f) = serial_orders(&all[..1]);
        build_sharded(WIDTH_BITS, SELECTOR, 2, &prefix_c, &prefix_f)
    });
    assert!(m.run().is_ok());
}

#[test]
fn overlapping_ownership_is_caught() {
    // Broken fixture: both workers are shard 0 — every index both own
    // is resolved twice. The disjointness invariant must fire on the
    // first schedule where both results for a batch coexist.
    let m = model(|| {
        let (a, asm) = build_sharded(WIDTH_BITS, SELECTOR, 2, &[], &[]);
        let (b, _) = build_sharded(WIDTH_BITS, SELECTOR, 2, &[], &[]);
        let zero_a = a.into_iter().next().expect("shard 0");
        let zero_b = b.into_iter().next().expect("shard 0");
        (vec![zero_a, zero_b], asm)
    });
    let v = m.run().expect_err("double resolution must be caught");
    assert_eq!(v.check, "no protocol violations");
    assert!(v.message.contains("resolved by shards"));
}
