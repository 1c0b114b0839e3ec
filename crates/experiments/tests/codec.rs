//! The one JSON codec, end to end: what the telemetry trace writer emits,
//! the trace parser reads back unchanged.

use experiments::trace_cli::parse_line;
use pert_core::telemetry::{push_record_line, Record};
use proptest::prelude::*;

/// Characters a writer must escape or pass through untouched: quotes,
/// backslashes, every control character class, non-ASCII.
const TRICKY: [char; 14] = [
    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', '/', 'é', '→', '🦀', 'a', ' ',
];

/// Strings drawn from [`TRICKY`] and from arbitrary scalar values.
fn text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        (0usize..TRICKY.len()).prop_map(|i| TRICKY[i]),
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}')),
    ];
    collection::vec(ch, 0..12).prop_map(|cs| cs.into_iter().collect())
}

/// Any `f64` bit pattern: NaNs, infinities, subnormals, signed zeros.
fn any_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

/// Equal as the trace carries them: the same bits, or both unwritable
/// (non-finite is written as `null` and read back as NaN).
fn same(wrote: f64, read: f64) -> bool {
    if wrote.is_finite() {
        wrote.to_bits() == read.to_bits()
    } else {
        read.is_nan()
    }
}

proptest! {
    #[test]
    fn trace_line_round_trips(
        scope in text(),
        series in text(),
        key in any::<u64>(),
        t in any_f64(),
        value in any_f64(),
        shard in prop_oneof![Just(None), any::<u32>().prop_map(Some)],
    ) {
        let series: &'static str = Box::leak(series.into_boxed_str());
        let record = Record { scope: scope.as_str().into(), series, key, t, value, shard };
        let mut line = String::new();
        push_record_line(&mut line, &record);
        prop_assert!(line.ends_with('\n') && line.matches('\n').count() == 1, "{line:?}");
        let back = parse_line(line.trim_end_matches('\n')).unwrap();
        prop_assert_eq!(&back.scope, &scope);
        prop_assert_eq!(back.series.as_str(), series);
        prop_assert_eq!(back.key, key);
        prop_assert_eq!(back.shard, shard.map(u64::from));
        prop_assert!(same(t, back.t) && same(value, back.v), "{line}");
    }
}
