//! The rule catalogue. Each rule is token-driven (no string matching on
//! raw source, so occurrences inside string literals or comments never
//! fire) and either per-file (`check_file`) or workspace-wide
//! (`check_workspace`).

use crate::engine::{FileContext, LintSink};
use crate::tokenizer::{int_value, Token, TokenKind};
use std::collections::BTreeMap;

/// A lint rule. Implement whichever granularity fits; defaults no-op.
pub trait Rule {
    /// Stable kebab-case identifier used in diagnostics and `allow(...)`.
    fn name(&self) -> &'static str;
    /// One-line description for `--list`.
    fn description(&self) -> &'static str;
    /// Per-file pass.
    fn check_file(&self, _ctx: &FileContext, _out: &mut LintSink) {}
    /// Whole-workspace pass, run once over every file's context.
    fn check_workspace(&self, _ctxs: &[FileContext], _out: &mut LintSink) {}
}

/// The full rule set, in diagnostic-output order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoWallClock),
        Box::new(NoPanicHotPath),
        Box::new(NoAllocHotLoop),
        Box::new(NoUnboundedChannel),
        Box::new(AtomicsOrderingAudit),
        Box::new(OpcodeCoverage),
        Box::new(VendoredDepBoundary),
        Box::new(Taint),
    ]
}

// ---------------------------------------------------------------------------
// taint
// ---------------------------------------------------------------------------

/// Workspace-wide anonymisation-soundness dataflow: annotated raw-id
/// sources must pass through an annotated sanitizer before any annotated
/// byte-emitting sink. The heavy lifting lives in [`crate::taint`].
pub struct Taint;

impl Rule for Taint {
    fn name(&self) -> &'static str {
        crate::taint::RULE
    }
    fn description(&self) -> &'static str {
        "source→sink dataflow: raw clientIDs/fileIDs must pass an etw-anonymize sanitizer before any byte-emitting sink"
    }
    fn check_workspace(&self, ctxs: &[FileContext], out: &mut LintSink) {
        crate::taint::check(ctxs, out);
    }
}

fn is_ident(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == text
}

fn is_punct(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == text
}

// ---------------------------------------------------------------------------
// no-wall-clock
// ---------------------------------------------------------------------------

/// Bans `Instant::now()` and any `SystemTime` use outside the telemetry
/// and trace crates (which own the wall-clock/virtual-time boundary —
/// stage spans carry both clocks by design), benches, and tests.
/// Simulation and decode code must derive time from
/// `netsim::clock::VirtualTime` so runs stay deterministic and
/// replayable.
pub struct NoWallClock;

impl NoWallClock {
    fn exempt(path: &str) -> bool {
        path.starts_with("crates/telemetry/")
            || path.starts_with("crates/trace/")
            || path.starts_with("crates/bench/")
            || path.contains("/tests/")
            || path.starts_with("tests/")
            || path.starts_with("benches/")
    }
}

impl Rule for NoWallClock {
    fn name(&self) -> &'static str {
        "no-wall-clock"
    }
    fn description(&self) -> &'static str {
        "Instant::now()/SystemTime outside crates/telemetry and benches; use netsim::clock::VirtualTime"
    }
    fn check_file(&self, ctx: &FileContext, out: &mut LintSink) {
        if Self::exempt(&ctx.rel_path) {
            return;
        }
        let t = &ctx.tokens;
        for i in 0..t.len() {
            if ctx.in_test_code(t[i].line) {
                continue;
            }
            if is_ident(&t[i], "Instant")
                && i + 2 < t.len()
                && is_punct(&t[i + 1], ":")
                && is_punct(&t[i + 2], ":")
                && t.get(i + 3).is_some_and(|n| is_ident(n, "now"))
            {
                ctx.report(
                    out,
                    self.name(),
                    &t[i],
                    "wall-clock read (`Instant::now`) outside crates/telemetry; \
                     derive time from netsim::clock::VirtualTime"
                        .to_string(),
                );
            }
            if is_ident(&t[i], "SystemTime") {
                ctx.report(
                    out,
                    self.name(),
                    &t[i],
                    "`SystemTime` outside crates/telemetry; capture-machine code \
                     must be wall-clock free (netsim::clock::VirtualTime)"
                        .to_string(),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-panic-hot-path
// ---------------------------------------------------------------------------

/// Files on the capture hot path where a panic means losing the tail of
/// a ten-week trace. `unwrap`/`expect` and panic-family macros need an
/// explicit justification (`// etwlint: allow(no-panic-hot-path): ...`)
/// or a typed-error refactor.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/pipeline.rs",
    "crates/core/src/campaign.rs",
    "crates/core/src/config.rs",
    "crates/edonkey/src/decoder.rs",
    "crates/faults/src/lib.rs",
    "crates/faults/src/sock.rs",
    "crates/netsim/src/capture.rs",
    "crates/server/src/net.rs",
    "crates/server/src/swarm.rs",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub struct NoPanicHotPath;

impl Rule for NoPanicHotPath {
    fn name(&self) -> &'static str {
        "no-panic-hot-path"
    }
    fn description(&self) -> &'static str {
        "unwrap/expect/panic! in capture hot-path files (core pipeline/campaign/config, decoder, ring)"
    }
    fn check_file(&self, ctx: &FileContext, out: &mut LintSink) {
        if !HOT_PATH_FILES.contains(&ctx.rel_path.as_str()) {
            return;
        }
        let t = &ctx.tokens;
        for i in 0..t.len() {
            if ctx.in_test_code(t[i].line) {
                continue;
            }
            // `.unwrap` / `.expect` method calls (field accesses can't
            // collide: those identifiers aren't used as field names here).
            if t[i].kind == TokenKind::Ident
                && (t[i].text == "unwrap" || t[i].text == "expect")
                && i > 0
                && is_punct(&t[i - 1], ".")
                && t.get(i + 1).is_some_and(|n| is_punct(n, "("))
            {
                ctx.report(
                    out,
                    self.name(),
                    &t[i],
                    format!(
                        "`.{}()` on the capture hot path can abort a ten-week run; \
                         return a typed error or justify with an allow comment",
                        t[i].text
                    ),
                );
            }
            // panic-family macros.
            if t[i].kind == TokenKind::Ident
                && PANIC_MACROS.contains(&t[i].text.as_str())
                && t.get(i + 1).is_some_and(|n| is_punct(n, "!"))
            {
                ctx.report(
                    out,
                    self.name(),
                    &t[i],
                    format!("`{}!` on the capture hot path", t[i].text),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// atomics-ordering-audit
// ---------------------------------------------------------------------------

/// Memory-ordering name tokens we audit. `Ordering::Relaxed` paths and
/// bare imported `Relaxed` both surface as one of these identifiers.
/// `std::cmp::Ordering` variants (Less/Equal/Greater) don't collide.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Every memory-ordering argument must carry a nearby `// ordering:`
/// comment explaining why that ordering is sufficient; `SeqCst` is
/// flagged even when justified (it usually papers over an unclear
/// protocol) and needs a full `allow` to pass.
pub struct AtomicsOrderingAudit;

impl AtomicsOrderingAudit {
    /// Lines of comment lookback accepted for a justification.
    const LOOKBACK: usize = 3;
}

impl Rule for AtomicsOrderingAudit {
    fn name(&self) -> &'static str {
        "atomics-ordering-audit"
    }
    fn description(&self) -> &'static str {
        "every Ordering::* use needs an `// ordering:` justification comment; SeqCst suspicious by default"
    }
    fn check_file(&self, ctx: &FileContext, out: &mut LintSink) {
        let t = &ctx.tokens;
        for i in 0..t.len() {
            if t[i].kind != TokenKind::Ident || !ORDERINGS.contains(&t[i].text.as_str()) {
                continue;
            }
            if ctx.in_test_code(t[i].line) {
                continue;
            }
            // `use ... Ordering::{...}` import lines introduce the name,
            // they are not a use site to audit.
            if in_use_decl(t, i) {
                continue;
            }
            if t[i].text == "SeqCst" {
                ctx.report(
                    out,
                    self.name(),
                    &t[i],
                    "`SeqCst` is suspicious by default: name the acquire/release \
                     pairing you actually need, or allow with justification"
                        .to_string(),
                );
                continue;
            }
            if !ctx.has_comment_marker("ordering:", t[i].line, Self::LOOKBACK) {
                ctx.report(
                    out,
                    self.name(),
                    &t[i],
                    format!(
                        "`{}` without an `// ordering:` justification comment within \
                         {} lines",
                        t[i].text,
                        Self::LOOKBACK
                    ),
                );
            }
        }
    }
}

/// Walks back from token `i` to the start of its statement (`;`, `{`,
/// `}`) and reports whether the statement begins with `use` or `pub use`.
fn in_use_decl(t: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        let p = &t[j - 1];
        if p.kind == TokenKind::Punct && (p.text == ";" || (p.text == "}" && !brace_in_use(t, j))) {
            break;
        }
        if is_ident(p, "use") {
            return true;
        }
        j -= 1;
    }
    false
}

/// A `}` directly before us may still be *inside* a `use a::{b, c}` group;
/// treat it as a statement boundary only when no `use` keyword precedes it
/// on the same brace nesting run. Cheap approximation: scan back up to 32
/// tokens for `use` before a `;`.
fn brace_in_use(t: &[Token], j: usize) -> bool {
    let lo = j.saturating_sub(32);
    for k in (lo..j).rev() {
        if is_ident(&t[k], "use") {
            return true;
        }
        if is_punct(&t[k], ";") {
            return false;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// opcode-coverage
// ---------------------------------------------------------------------------

/// Cross-checks the protocol tables: every opcode constant declared in
/// `edonkey::messages::opcodes` must (a) be matched somewhere in the
/// decoder, (b) be used in messages.rs outside its own declaration block
/// (encode/dispatch side), and (c) stay disjoint from the corrupt
/// injector's unknown-opcode ranges, so fuzzed "unknown" opcodes can
/// never alias a real message type.
pub struct OpcodeCoverage;

const MESSAGES_RS: &str = "crates/edonkey/src/messages.rs";
const DECODER_RS: &str = "crates/edonkey/src/decoder.rs";
const CORRUPT_RS: &str = "crates/edonkey/src/corrupt.rs";

impl Rule for OpcodeCoverage {
    fn name(&self) -> &'static str {
        "opcode-coverage"
    }
    fn description(&self) -> &'static str {
        "every opcode in edonkey::messages::opcodes must be handled by the decoder and avoided by corrupt-injection ranges"
    }
    fn check_workspace(&self, ctxs: &[FileContext], out: &mut LintSink) {
        let Some(messages) = ctxs.iter().find(|c| c.rel_path == MESSAGES_RS) else {
            return; // not this workspace's layout; nothing to check
        };
        let Some((opcodes, block_span)) = parse_opcode_block(&messages.tokens) else {
            return;
        };

        let decoder = ctxs.iter().find(|c| c.rel_path == DECODER_RS);
        let corrupt_ranges = ctxs
            .iter()
            .find(|c| c.rel_path == CORRUPT_RS)
            .map(|c| hex_ranges(&c.tokens))
            .unwrap_or_default();

        for (name, value, decl_tok) in &opcodes {
            if let Some(dec) = decoder {
                let matched = dec
                    .tokens
                    .iter()
                    .any(|t| t.kind == TokenKind::Ident && t.text == *name);
                if !matched {
                    messages.report(
                        out,
                        self.name(),
                        decl_tok,
                        format!("opcode `{name}` (0x{value:02x}) is never matched in {DECODER_RS}"),
                    );
                }
            }
            let used_outside = messages.tokens.iter().any(|t| {
                t.kind == TokenKind::Ident
                    && t.text == *name
                    && !(block_span.0..=block_span.1).contains(&t.line)
            });
            if !used_outside {
                messages.report(
                    out,
                    self.name(),
                    decl_tok,
                    format!(
                        "opcode `{name}` (0x{value:02x}) is declared but never used \
                         outside the opcodes block in {MESSAGES_RS}"
                    ),
                );
            }
            for &(lo, hi) in &corrupt_ranges {
                if (lo..hi).contains(&u64::from(*value)) {
                    messages.report(
                        out,
                        self.name(),
                        decl_tok,
                        format!(
                            "opcode `{name}` (0x{value:02x}) falls inside the \
                             corrupt-injection \"unknown opcode\" range \
                             0x{lo:02x}..0x{hi:02x} in {CORRUPT_RS}; injected \
                             corruption would alias a real message"
                        ),
                    );
                }
            }
        }
    }
}

/// Parses `mod opcodes { pub const NAME: u8 = 0x..; ... }` out of the
/// messages token stream. Returns the constants plus the block's line
/// span.
#[allow(clippy::type_complexity)]
fn parse_opcode_block(t: &[Token]) -> Option<(Vec<(String, u8, Token)>, (usize, usize))> {
    let mut i = 0;
    let start = loop {
        if i + 2 >= t.len() {
            return None;
        }
        if is_ident(&t[i], "mod") && is_ident(&t[i + 1], "opcodes") && is_punct(&t[i + 2], "{") {
            break i + 2;
        }
        i += 1;
    };
    let mut depth = 0usize;
    let mut end = start;
    let mut consts = Vec::new();
    let mut k = start;
    while k < t.len() {
        if t[k].kind == TokenKind::Punct {
            if t[k].text == "{" {
                depth += 1;
            } else if t[k].text == "}" {
                depth -= 1;
                if depth == 0 {
                    end = k;
                    break;
                }
            }
        }
        // const NAME : u8 = <num>
        if is_ident(&t[k], "const")
            && k + 5 < t.len()
            && t[k + 1].kind == TokenKind::Ident
            && is_punct(&t[k + 2], ":")
            && is_ident(&t[k + 3], "u8")
            && is_punct(&t[k + 4], "=")
            && t[k + 5].kind == TokenKind::Num
        {
            if let Some(v) = int_value(&t[k + 5].text) {
                consts.push((t[k + 1].text.clone(), v as u8, t[k + 1].clone()));
            }
        }
        k += 1;
    }
    Some((consts, (t[start].line, t[end].line)))
}

/// Collects `0xNN..0xMM`-style numeric ranges (token pattern
/// `Num . . Num`, optionally `..=`) anywhere in a file. Only ranges with
/// *both* endpoints written in hex count: that is the repo convention
/// for opcode-space literals, and it keeps plain loop bounds (`0..200`)
/// from masquerading as injection ranges.
fn hex_ranges(t: &[Token]) -> Vec<(u64, u64)> {
    let is_hex = |tok: &Token| tok.text.starts_with("0x") || tok.text.starts_with("0X");
    let mut out = Vec::new();
    for i in 0..t.len() {
        if t[i].kind != TokenKind::Num || !is_hex(&t[i]) {
            continue;
        }
        let mut j = i + 1;
        if j + 1 < t.len() && is_punct(&t[j], ".") && is_punct(&t[j + 1], ".") {
            j += 2;
            let mut inclusive = false;
            if j < t.len() && is_punct(&t[j], "=") {
                inclusive = true;
                j += 1;
            }
            if j < t.len() && t[j].kind == TokenKind::Num && is_hex(&t[j]) {
                if let (Some(lo), Some(hi)) = (int_value(&t[i].text), int_value(&t[j].text)) {
                    out.push((lo, if inclusive { hi + 1 } else { hi }));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// no-alloc-hot-loop
// ---------------------------------------------------------------------------

/// Files whose per-frame / per-record / per-id loops must stay
/// allocation-free: the decode workers and batched tail in the core
/// pipeline, the checkpoint encoder (a cut runs on the write stage's
/// thread), and the zero-alloc XML formatter. `Vec::with_capacity` is deliberately *not*
/// flagged — it is the sanctioned pre-size idiom and the buffer pools
/// fall back to it on a pool miss.
const HOT_LOOP_FILES: &[&str] = &[
    "crates/core/src/checkpoint.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/source.rs",
    "crates/anonymize/src/shard.rs",
    "crates/edonkey/src/decoder.rs",
    "crates/server/src/net.rs",
    "crates/server/src/shard.rs",
    "crates/server/src/swarm.rs",
    "crates/trace/src/lib.rs",
    "crates/trace/src/ring.rs",
    "crates/workload/src/session.rs",
    "crates/xmlout/src/encode.rs",
    "crates/xmlout/src/escape.rs",
    "crates/xmlout/src/writer.rs",
];

/// `Type::new()`-style constructors that always allocate.
const ALLOC_CTORS: &[&str] = &["Vec", "String"];

/// `.method()` calls that clone into a fresh allocation.
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec"];

/// Macros that allocate on every expansion.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Flags per-iteration allocations (`Vec::new`, `String::new`,
/// `format!`, `vec!`, `.to_string()`, `.to_owned()`, `.to_vec()`) inside
/// `for`/`while`/`loop` bodies in the capture hot-path files. The
/// batched tail's throughput contract is zero steady-state
/// allocations/record (`repro bench` measures it); the fix is a reused
/// buffer (`clear()` + extend) hoisted out of the loop, or an `allow`
/// naming the cold path it sits on.
pub struct NoAllocHotLoop;

impl Rule for NoAllocHotLoop {
    fn name(&self) -> &'static str {
        "no-alloc-hot-loop"
    }
    fn description(&self) -> &'static str {
        "Vec::new/format!/to_string inside per-frame loops in decode-worker and formatter files"
    }
    fn check_file(&self, ctx: &FileContext, out: &mut LintSink) {
        if !HOT_LOOP_FILES.contains(&ctx.rel_path.as_str()) {
            return;
        }
        let t = &ctx.tokens;
        let spans = loop_body_spans(t);
        if spans.is_empty() {
            return;
        }
        let in_loop = |i: usize| spans.iter().any(|&(a, b)| (a..=b).contains(&i));
        for i in 0..t.len() {
            if t[i].kind != TokenKind::Ident || !in_loop(i) || ctx.in_test_code(t[i].line) {
                continue;
            }
            // `Vec::new()` / `String::new()`.
            if ALLOC_CTORS.contains(&t[i].text.as_str())
                && i + 3 < t.len()
                && is_punct(&t[i + 1], ":")
                && is_punct(&t[i + 2], ":")
                && is_ident(&t[i + 3], "new")
            {
                ctx.report(
                    out,
                    self.name(),
                    &t[i],
                    format!(
                        "`{}::new()` inside a hot-path loop; hoist a reusable \
                         buffer out of the loop (`clear()` + extend)",
                        t[i].text
                    ),
                );
            }
            // `format!(...)` / `vec![...]`.
            if ALLOC_MACROS.contains(&t[i].text.as_str())
                && t.get(i + 1).is_some_and(|n| is_punct(n, "!"))
            {
                ctx.report(
                    out,
                    self.name(),
                    &t[i],
                    format!(
                        "`{}!` allocates on every iteration of a hot-path loop; \
                         render into a reused buffer instead",
                        t[i].text
                    ),
                );
            }
            // `.to_string()` / `.to_owned()` / `.to_vec()`.
            if ALLOC_METHODS.contains(&t[i].text.as_str())
                && i > 0
                && is_punct(&t[i - 1], ".")
                && t.get(i + 1).is_some_and(|n| is_punct(n, "("))
            {
                ctx.report(
                    out,
                    self.name(),
                    &t[i],
                    format!(
                        "`.{}()` clones into a fresh allocation inside a hot-path \
                         loop; borrow or reuse a hoisted buffer",
                        t[i].text
                    ),
                );
            }
        }
    }
}

/// Token-index spans (inclusive) of `for`/`while`/`loop` bodies,
/// including nested ones. Light-weight by design: the body is the first
/// `{` after the keyword, brace-matched to its close. A `for` keyword
/// only counts as a loop when an `in` sits between it and the body —
/// that screens out `impl Trait for Type { … }` blocks and `for<'a>`
/// higher-ranked bounds, whose token shape is otherwise identical.
fn loop_body_spans(t: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..t.len() {
        if t[i].kind != TokenKind::Ident || !matches!(t[i].text.as_str(), "for" | "while" | "loop")
        {
            continue;
        }
        let mut j = i + 1;
        let mut saw_in = false;
        while j < t.len() && !is_punct(&t[j], "{") {
            if is_ident(&t[j], "in") {
                saw_in = true;
            }
            j += 1;
        }
        if j >= t.len() || (t[i].text == "for" && !saw_in) {
            continue;
        }
        let mut depth = 0usize;
        let mut k = j;
        while k < t.len() {
            if t[k].kind == TokenKind::Punct {
                if t[k].text == "{" {
                    depth += 1;
                } else if t[k].text == "}" {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            k += 1;
        }
        spans.push((j, k));
    }
    spans
}

// ---------------------------------------------------------------------------
// no-unbounded-channel
// ---------------------------------------------------------------------------

/// Files where every queue between pipeline stages must be a
/// `telemetry::channel::metered_bounded` channel: the shard fan-out made
/// channel topology load-bearing, and an unmetered queue is invisible to
/// the health monitor (no depth gauge, no stall accounting) while an
/// unbounded one turns backpressure into unbounded memory growth.
const CHANNEL_FILES: &[&str] = &[
    "crates/core/src/pipeline.rs",
    "crates/core/src/campaign.rs",
    "crates/core/src/source.rs",
    "crates/anonymize/src/shard.rs",
    "crates/server/src/shard.rs",
    "crates/trace/src/lib.rs",
    "crates/trace/src/ring.rs",
    "crates/trace/src/ops.rs",
    "crates/workload/src/session.rs",
];

/// Raw channel constructors. `metered_bounded` is a single identifier,
/// so the sanctioned wrapper never matches.
const CHANNEL_CTORS: &[&str] = &["bounded", "unbounded", "channel", "sync_channel"];

/// Flags raw channel construction (`bounded(..)`, `unbounded(..)`,
/// `mpsc::channel()`, `sync_channel(..)`) in pipeline/shard files.
/// Buffer-recycling pools are the accepted exception — they are bounded,
/// non-blocking by construction (`try_send`/`try_recv` only), and not
/// work queues — and each pool site carries an `allow` saying so.
pub struct NoUnboundedChannel;

impl Rule for NoUnboundedChannel {
    fn name(&self) -> &'static str {
        "no-unbounded-channel"
    }
    fn description(&self) -> &'static str {
        "raw bounded()/unbounded()/channel() construction in pipeline/shard files; use telemetry metered_bounded"
    }
    fn check_file(&self, ctx: &FileContext, out: &mut LintSink) {
        if !CHANNEL_FILES.contains(&ctx.rel_path.as_str()) {
            return;
        }
        let t = &ctx.tokens;
        for i in 0..t.len() {
            if t[i].kind != TokenKind::Ident
                || !CHANNEL_CTORS.contains(&t[i].text.as_str())
                || ctx.in_test_code(t[i].line)
            {
                continue;
            }
            // A call site: `ctor(` or turbofished `ctor::<T>(`.
            let called = t.get(i + 1).is_some_and(|n| is_punct(n, "("))
                || (i + 3 < t.len()
                    && is_punct(&t[i + 1], ":")
                    && is_punct(&t[i + 2], ":")
                    && is_punct(&t[i + 3], "<"));
            if !called {
                continue;
            }
            ctx.report(
                out,
                self.name(),
                &t[i],
                format!(
                    "raw `{}(..)` channel in a pipeline/shard file is invisible \
                     to the health monitor; use telemetry::channel::metered_bounded, \
                     or justify a non-blocking recycling pool with an allow comment",
                    t[i].text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// vendored-dep-boundary
// ---------------------------------------------------------------------------

/// The `vendor/` tree holds offline API-subset stand-ins that only
/// `Cargo.toml` path dependencies may reference. A `vendor/` path inside
/// Rust source (e.g. `#[path = "…/vendor/…"]`, `include!`, fs access)
/// couples code to the stand-in layout and breaks the swap-out story.
pub struct VendoredDepBoundary;

impl Rule for VendoredDepBoundary {
    fn name(&self) -> &'static str {
        "vendored-dep-boundary"
    }
    fn description(&self) -> &'static str {
        "no paths into the vendored stand-in tree in Rust source; only Cargo.toml may point there"
    }
    fn check_file(&self, ctx: &FileContext, out: &mut LintSink) {
        for tok in &ctx.tokens {
            if tok.kind == TokenKind::Str
                // etwlint: allow(vendored-dep-boundary): the rule's own needle
                && tok.text.contains("vendor/")
            {
                ctx.report(
                    out,
                    self.name(),
                    tok,
                    "string literal references a path into the vendored stand-in \
                     tree; those crates are reachable only through Cargo.toml \
                     path dependencies"
                        .to_string(),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------

/// Convenience: map of rule name → description, for `--list`.
pub fn rule_catalogue() -> BTreeMap<&'static str, &'static str> {
    all_rules()
        .iter()
        .map(|r| (r.name(), r.description()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SourceFile;

    fn lint_one(path: &str, src: &str) -> LintSink {
        let ctx = FileContext::new(&SourceFile {
            rel_path: path.into(),
            text: src.into(),
        });
        let mut sink = LintSink::default();
        for rule in all_rules() {
            rule.check_file(&ctx, &mut sink);
            rule.check_workspace(std::slice::from_ref(&ctx), &mut sink);
        }
        sink
    }

    #[test]
    fn use_decl_is_not_a_use_site() {
        let sink = lint_one(
            "crates/x/src/lib.rs",
            "use std::sync::atomic::{AtomicU64, Ordering::Relaxed};\nfn f() {}",
        );
        assert!(sink.diagnostics.is_empty(), "{:?}", sink.diagnostics);
    }

    #[test]
    fn bare_relaxed_needs_justification() {
        let sink = lint_one(
            "crates/x/src/lib.rs",
            "use std::sync::atomic::Ordering::Relaxed;\nfn f(a: &AtomicU64) { a.fetch_add(1, Relaxed); }",
        );
        assert_eq!(sink.diagnostics.len(), 1);
        assert_eq!(sink.diagnostics[0].rule, "atomics-ordering-audit");
        assert_eq!(sink.diagnostics[0].line, 2);
    }

    #[test]
    fn loop_spans_skip_impl_for_and_hrtb() {
        let ctx = FileContext::new(&SourceFile {
            rel_path: "x.rs".into(),
            text: "impl Rule for NoWallClock { fn f(&self) { String::new(); } }\n\
                   fn g(h: impl for<'a> Fn(&'a str)) { String::new(); }\n\
                   fn real() { for x in 0..3 { let _ = x; } loop { break; } }"
                .into(),
        });
        let spans = loop_body_spans(&ctx.tokens);
        assert_eq!(spans.len(), 2, "{spans:?}");
        // Both detected bodies are on line 3.
        for (a, b) in spans {
            assert_eq!(ctx.tokens[a].line, 3);
            assert_eq!(ctx.tokens[b].line, 3);
        }
    }

    #[test]
    fn raw_channels_flagged_only_in_pipeline_files() {
        let src = "fn f() { let (tx, rx) = crossbeam::channel::bounded::<u8>(4); }";
        let sink = lint_one("crates/core/src/pipeline.rs", src);
        assert!(
            sink.diagnostics
                .iter()
                .any(|d| d.rule == "no-unbounded-channel"),
            "{:?}",
            sink.diagnostics
        );
        // Same construction outside the channel-topology files is fine.
        let sink = lint_one("crates/server/src/lib.rs", src);
        assert!(sink
            .diagnostics
            .iter()
            .all(|d| d.rule != "no-unbounded-channel"));
        // The sanctioned wrapper is a single identifier — never matches.
        let sink = lint_one(
            "crates/core/src/pipeline.rs",
            "fn f(r: &Registry) { let (tx, rx) = metered_bounded::<u8>(4, r, \"q\"); }",
        );
        assert!(sink
            .diagnostics
            .iter()
            .all(|d| d.rule != "no-unbounded-channel"));
        // A justified recycling pool is suppressed (and accounted).
        let sink = lint_one(
            "crates/core/src/pipeline.rs",
            "fn f() {\n    // etwlint: allow(no-unbounded-channel): recycling pool\n    \
             let (tx, rx) = crossbeam::channel::bounded::<u8>(4);\n}",
        );
        assert!(sink
            .diagnostics
            .iter()
            .all(|d| d.rule != "no-unbounded-channel"));
        assert!(sink
            .suppressed
            .iter()
            .any(|d| d.rule == "no-unbounded-channel"));
        // `mpsc::channel()` (unbounded) is flagged; a path segment named
        // `channel` is not.
        let sink = lint_one(
            "crates/core/src/pipeline.rs",
            "use telemetry::channel::metered_bounded;\nfn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }",
        );
        assert_eq!(
            sink.diagnostics
                .iter()
                .filter(|d| d.rule == "no-unbounded-channel")
                .count(),
            1
        );
    }

    #[test]
    fn hex_range_extraction() {
        let ctx = FileContext::new(&SourceFile {
            rel_path: "x.rs".into(),
            text: "let a = rng.gen_range(0x40..0x7f); let b = 0x10..=0x13; for _ in 0..200 {}"
                .into(),
        });
        assert_eq!(hex_ranges(&ctx.tokens), vec![(0x40, 0x7f), (0x10, 0x14)]);
    }
}
