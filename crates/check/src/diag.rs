//! Diagnostics: stable codes, severities, sites and the two renderers
//! (rustc-style human text and a machine-readable JSON array).

use std::fmt;
use vp_schedule::pass::ScheduledPass;

/// Stable diagnostic codes. The numeric part never changes meaning; new
/// checks append new codes. `vp_schedule::deps::DepError` embeds the same
/// codes for the defect classes dynamic validation can also hit
/// (`VP0001`–`VP0003`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `VP0001` — a set of passes wait on each other in a happens-before
    /// cycle: the schedule deadlocks.
    Deadlock,
    /// `VP0002` — a dependency references a pass the schedule does not
    /// contain (an implied send or collective shard with no partner).
    MissingPass,
    /// `VP0003` — the same pass is scheduled twice on one device.
    DuplicatePass,
    /// `VP0004` — a device schedules a pass kind for some microbatches but
    /// not others (a dropped send/recv leaves a coverage hole).
    CoverageHole,
    /// `VP0005` — a collective's participation set is not identical across
    /// vocabulary shards: some device never enters the barrier for a
    /// microbatch every other device enters it for.
    MissingParticipant,
    /// `VP0006` — devices enter the instances of a collective class in
    /// different orders; rendezvous collectives on in-order streams
    /// deadlock under such cross-shard disagreement.
    CollectiveOrder,
    /// `VP0007` — a pass consumes a comm-stream job's result before its
    /// own device issues the job's shard contribution.
    ConsumeBeforeIssue,
    /// `VP0008` — a pass consumes an activation that was never allocated,
    /// or is allocated only later in program order.
    UseBeforeAlloc,
    /// `VP0009` — an activation is allocated but never freed within the
    /// iteration.
    ActivationLeak,
    /// `VP0010` — an activation slot is freed twice.
    DoubleFree,
    /// `VP0011` — a device's peak resident activations exceed the
    /// analytical 1F1B bound (§5.2: `p − d` plus one microbatch per
    /// communication barrier).
    PeakActivations,
    /// `VP0012` — two passes touch the same logical buffer, at least one
    /// writing, with no happens-before path ordering them correctly.
    UnsyncedAccess,
    /// `VP0013` — a grid entry enters a tensor collective under a group it
    /// is not a member of (or is not a grid rank at all); the rendezvous
    /// either hangs or silently mixes rows.
    WrongGroupMember,
    /// `VP0014` — row peers of one tensor group enter the same set of
    /// collectives in different orders; rendezvous collectives on in-order
    /// streams deadlock under such skew.
    GroupOrderSkew,
    /// `VP0015` — a grid entry participates in fewer (or other) tensor
    /// collectives than its row peers: some rendezvous waits forever on
    /// the missing member.
    GridCoverageHole,
    /// `VP0016` — a forward-only (decode) schedule contains a
    /// backward-family pass (`B`, `W`, `T`, `S2`, `InputB`); inference
    /// never produces gradients, so such a pass would wait forever on a
    /// gradient that no one sends.
    BackwardInDecode,
    /// `VP0017` — a deadlock only rendezvous (blocking-send) semantics
    /// show: the schedule is acyclic in the asymmetric happens-before
    /// model, but run with its synchronous collectives as rendezvous —
    /// each blocks its device, and all of the device's later sends, until
    /// every participant arrives — it gets stuck.
    RendezvousDeadlock,
}

impl Code {
    /// The stable code string, e.g. `"VP0001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Deadlock => "VP0001",
            Code::MissingPass => "VP0002",
            Code::DuplicatePass => "VP0003",
            Code::CoverageHole => "VP0004",
            Code::MissingParticipant => "VP0005",
            Code::CollectiveOrder => "VP0006",
            Code::ConsumeBeforeIssue => "VP0007",
            Code::UseBeforeAlloc => "VP0008",
            Code::ActivationLeak => "VP0009",
            Code::DoubleFree => "VP0010",
            Code::PeakActivations => "VP0011",
            Code::UnsyncedAccess => "VP0012",
            Code::WrongGroupMember => "VP0013",
            Code::GroupOrderSkew => "VP0014",
            Code::GridCoverageHole => "VP0015",
            Code::BackwardInDecode => "VP0016",
            Code::RendezvousDeadlock => "VP0017",
        }
    }

    /// One-line description of the defect class (the diagnostic-code
    /// table of DESIGN.md §7).
    pub fn title(self) -> &'static str {
        match self {
            Code::Deadlock => "dependency cycle (deadlock)",
            Code::MissingPass => "dependency on a missing pass",
            Code::DuplicatePass => "duplicate pass",
            Code::CoverageHole => "microbatch coverage hole",
            Code::MissingParticipant => "collective participant missing",
            Code::CollectiveOrder => "collective entry order diverges across devices",
            Code::ConsumeBeforeIssue => "comm-stream result consumed before issue",
            Code::UseBeforeAlloc => "activation used before allocation",
            Code::ActivationLeak => "activation leaked",
            Code::DoubleFree => "activation double-free",
            Code::PeakActivations => "peak activations exceed the 1F1B bound",
            Code::UnsyncedAccess => "conflicting buffer accesses without happens-before order",
            Code::WrongGroupMember => "collective entered under the wrong tensor group",
            Code::GroupOrderSkew => "tensor-group rendezvous order diverges across row peers",
            Code::GridCoverageHole => "tensor-group participation differs across row peers",
            Code::BackwardInDecode => "backward-family pass in a forward-only decode schedule",
            Code::RendezvousDeadlock => "deadlock under rendezvous (blocking-send) semantics",
        }
    }

    /// Every defined code, in numeric order.
    pub fn all() -> [Code; 17] {
        [
            Code::Deadlock,
            Code::MissingPass,
            Code::DuplicatePass,
            Code::CoverageHole,
            Code::MissingParticipant,
            Code::CollectiveOrder,
            Code::ConsumeBeforeIssue,
            Code::UseBeforeAlloc,
            Code::ActivationLeak,
            Code::DoubleFree,
            Code::PeakActivations,
            Code::UnsyncedAccess,
            Code::WrongGroupMember,
            Code::GroupOrderSkew,
            Code::GridCoverageHole,
            Code::BackwardInDecode,
            Code::RendezvousDeadlock,
        ]
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Diagnostic severity. Every current check reports errors; the level
/// exists so future style lints can ride the same pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The schedule is wrong: it deadlocks, corrupts state or breaks the
    /// memory bound.
    Error,
    /// Suspicious but executable.
    Warning,
}

impl Severity {
    /// Lowercase label used by both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// A location in a schedule: pass `pass` at `slot` in `device`'s order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Site {
    /// Device index.
    pub device: usize,
    /// Position in the device's execution order.
    pub slot: usize,
    /// The pass at that position.
    pub pass: ScheduledPass,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device {}, slot {}: {}",
            self.device, self.slot, self.pass
        )
    }
}

/// One finding of the static analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity.
    pub severity: Severity,
    /// The main, one-line message.
    pub message: String,
    /// The pass the diagnostic points at, if it has a single anchor.
    pub primary: Option<Site>,
    /// Additional labeled sites (cycle members, the matching send, …).
    pub related: Vec<(Site, String)>,
    /// Free-form notes printed after the sites.
    pub notes: Vec<String>,
    /// An actionable suggestion.
    pub help: Option<String>,
}

impl Diagnostic {
    /// A new error-severity diagnostic.
    pub fn error(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            primary: None,
            related: Vec::new(),
            notes: Vec::new(),
            help: None,
        }
    }

    /// Anchors the diagnostic at a site.
    pub fn at(mut self, site: Site) -> Diagnostic {
        self.primary = Some(site);
        self
    }

    /// Adds a labeled related site.
    pub fn related(mut self, site: Site, label: impl Into<String>) -> Diagnostic {
        self.related.push((site, label.into()));
        self
    }

    /// Adds a note line.
    pub fn note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Sets the help line.
    pub fn help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    /// The rustc-style human rendering:
    ///
    /// ```text
    /// error[VP0001]: dependency cycle (deadlock): 2 passes wait on each other
    ///   --> device 1, slot 0: B0
    ///    = note: B0 [device 1, slot 0] must precede F0 [device 1, slot 1] (local data dependency)
    ///    = help: reorder device 1 so every pass follows its dependencies
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}[{}]: {}",
            self.severity.as_str(),
            self.code,
            self.message
        )?;
        if let Some(site) = &self.primary {
            writeln!(f, "  --> {site}")?;
        }
        for (site, label) in &self.related {
            writeln!(f, "   = at {site} ({label})")?;
        }
        for note in &self.notes {
            writeln!(f, "   = note: {note}")?;
        }
        if let Some(help) = &self.help {
            writeln!(f, "   = help: {help}")?;
        }
        Ok(())
    }
}

/// Renders a batch of diagnostics as human text, ending with a summary
/// line (`"N error(s) found"` or `"no diagnostics"`).
pub fn render_human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if diags.is_empty() {
        out.push_str("no diagnostics\n");
    } else {
        out.push_str(&format!(
            "{errors} error(s), {} warning(s) found\n",
            diags.len() - errors
        ));
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_site(site: &Site) -> String {
    format!(
        "{{\"device\": {}, \"slot\": {}, \"pass\": \"{}\"}}",
        site.device, site.slot, site.pass
    )
}

/// Renders diagnostics as a JSON array (the `--json` machine format).
/// Each element carries `code`, `severity`, `title`, `message`, the
/// optional `primary` site, `related` sites with labels, `notes` and
/// `help`.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"code\": \"{}\", \"severity\": \"{}\", \"title\": \"{}\", \"message\": \"{}\"",
            d.code,
            d.severity.as_str(),
            json_escape(d.code.title()),
            json_escape(&d.message)
        ));
        if let Some(site) = &d.primary {
            out.push_str(&format!(", \"primary\": {}", json_site(site)));
        }
        if !d.related.is_empty() {
            out.push_str(", \"related\": [");
            for (j, (site, label)) in d.related.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"site\": {}, \"label\": \"{}\"}}",
                    json_site(site),
                    json_escape(label)
                ));
            }
            out.push(']');
        }
        if !d.notes.is_empty() {
            out.push_str(", \"notes\": [");
            for (j, note) in d.notes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\"", json_escape(note)));
            }
            out.push(']');
        }
        if let Some(help) = &d.help {
            out.push_str(&format!(", \"help\": \"{}\"", json_escape(help)));
        }
        out.push('}');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_schedule::pass::PassKind;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = Code::all();
        for (i, code) in all.iter().enumerate() {
            assert_eq!(code.as_str(), format!("VP{:04}", i + 1));
        }
    }

    #[test]
    fn human_rendering_is_rustc_shaped() {
        let d = Diagnostic::error(Code::Deadlock, "2 passes wait on each other")
            .at(Site {
                device: 1,
                slot: 0,
                pass: ScheduledPass::new(PassKind::B, 0),
            })
            .note("B0 must precede F0")
            .help("reorder device 1");
        let text = d.to_string();
        assert!(text.starts_with("error[VP0001]: "), "{text}");
        assert!(text.contains("  --> device 1, slot 0: B0"), "{text}");
        assert!(text.contains("   = note: "), "{text}");
        assert!(text.contains("   = help: "), "{text}");
    }

    #[test]
    fn json_rendering_escapes_and_nests() {
        let d = Diagnostic::error(Code::MissingPass, "needs \"F0\"").at(Site {
            device: 0,
            slot: 2,
            pass: ScheduledPass::new(PassKind::F, 1),
        });
        let json = render_json(&[d]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\\\"F0\\\""), "{json}");
        assert!(json.contains("\"code\": \"VP0002\""), "{json}");
        assert!(json.contains("\"primary\": {\"device\": 0"), "{json}");
    }

    #[test]
    fn dep_error_messages_embed_matching_codes() {
        // The satellite contract: vp_schedule's dynamic validation errors
        // carry the same stable codes as the static analyzer.
        use vp_schedule::block::PassTimes;
        use vp_schedule::pass::{Schedule, ScheduleKind, ScheduledPass};
        let stuck = Schedule::new(
            ScheduleKind::Plain,
            1,
            1,
            vec![
                vec![
                    ScheduledPass::new(PassKind::F, 0),
                    ScheduledPass::new(PassKind::B, 0),
                ],
                vec![
                    ScheduledPass::new(PassKind::B, 0),
                    ScheduledPass::new(PassKind::F, 0),
                ],
            ],
        );
        let err = vp_schedule::deps::validate(&stuck).unwrap_err();
        assert!(err.to_string().contains(Code::Deadlock.as_str()), "{err}");

        let missing = Schedule::new(
            ScheduleKind::Plain,
            1,
            1,
            vec![vec![], vec![ScheduledPass::new(PassKind::F, 0)]],
        );
        let err = vp_schedule::deps::validate(&missing).unwrap_err();
        assert!(
            err.to_string().contains(Code::MissingPass.as_str()),
            "{err}"
        );

        let dup = Schedule::new(
            ScheduleKind::Plain,
            1,
            1,
            vec![vec![
                ScheduledPass::new(PassKind::F, 0),
                ScheduledPass::new(PassKind::F, 0),
            ]],
        );
        let err = vp_schedule::deps::validate(&dup).unwrap_err();
        assert!(
            err.to_string().contains(Code::DuplicatePass.as_str()),
            "{err}"
        );
        let _ = PassTimes::default();
    }
}
