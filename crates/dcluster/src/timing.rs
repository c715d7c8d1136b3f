//! Which I/O timing model converts metered bytes into virtual seconds.

/// How the simulator prices concurrent I/O.
///
/// Both models consume the same byte meters and produce the same fitted
/// models — the choice moves *only* virtual time (and, under
/// [`TimingModel::Contended`], per-link contention statistics). That is
/// the same contract `byte_sizing` and `wire_codec` already honor, and it
/// is what keeps `fit()` bitwise identical across timing models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingModel {
    /// The legacy arithmetic model (the default): every transfer is
    /// charged at the cluster's full aggregate bandwidth, so concurrent
    /// transfers never interfere. Cheap, and the model all committed
    /// baselines were recorded under.
    Uncontended,
    /// The discrete-event model: each charge decomposes into per-node
    /// flows over a link topology (fabric + per-node uplink/downlink +
    /// per-node disk) and concurrent flows split link capacity
    /// max-min-fairly, with rates re-solved once per virtual instant
    /// with a transfer start/finish. Skewed traffic saturates some links
    /// while others idle — the contention the arithmetic model cannot
    /// express.
    Contended,
}

impl TimingModel {
    /// Parses the CLI spelling (`uncontended` | `contended`).
    pub fn parse(s: &str) -> Option<TimingModel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "uncontended" | "arithmetic" => Some(TimingModel::Uncontended),
            "contended" | "event" | "event-driven" => Some(TimingModel::Contended),
            _ => None,
        }
    }

    /// Canonical lowercase label (fingerprints, reports, JSON).
    pub fn label(&self) -> &'static str {
        match self {
            TimingModel::Uncontended => "uncontended",
            TimingModel::Contended => "contended",
        }
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::Uncontended
    }
}

impl std::fmt::Display for TimingModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_cli_spellings() {
        assert_eq!(TimingModel::parse("uncontended"), Some(TimingModel::Uncontended));
        assert_eq!(TimingModel::parse("Contended"), Some(TimingModel::Contended));
        assert_eq!(TimingModel::parse("event-driven"), Some(TimingModel::Contended));
        assert_eq!(TimingModel::parse("arithmetic"), Some(TimingModel::Uncontended));
        assert_eq!(TimingModel::parse("bogus"), None);
    }

    #[test]
    fn default_is_uncontended() {
        assert_eq!(TimingModel::default(), TimingModel::Uncontended);
        assert_eq!(TimingModel::default().label(), "uncontended");
    }
}
