//! ASCII bar charts, so `horus-cli repro` can render the paper's
//! figures (which are all bar charts) as text in `EXPERIMENTS.md`.

/// Renders horizontal bars for `(label, value)` pairs, scaled to
/// `width` characters, with the numeric value appended.
///
/// ```
/// let s = horus_bench::chart::bars(&[("a", 2.0), ("b", 4.0)], 8);
/// assert!(s.contains("a  ████     2.00"));
/// assert!(s.contains("b  ████████ 4.00"));
/// ```
#[must_use]
pub fn bars(data: &[(&str, f64)], width: usize) -> String {
    bars_with(data, width, |v| format!("{v:.2}"))
}

/// [`bars`] with a custom value formatter.
#[must_use]
pub fn bars_with(data: &[(&str, f64)], width: usize, fmt: impl Fn(f64) -> String) -> String {
    let label_w = data.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let max = data.iter().map(|(_, v)| *v).fold(0.0_f64, f64::max);
    let mut out = String::new();
    for (label, value) in data {
        let filled = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<label_w$}  {}{} {}\n",
            "█".repeat(filled),
            " ".repeat(width - filled.min(width)),
            fmt(*value)
        ));
    }
    out
}

/// Renders grouped stacked bars: each row is `(label, segments)` where
/// segments share the `segment_names` legend. Used for the paper's
/// breakdown figures (12 and 13).
#[must_use]
pub fn stacked_bars(segment_names: &[&str], rows: &[(&str, Vec<u64>)], width: usize) -> String {
    const GLYPHS: [char; 6] = ['█', '▓', '▒', '░', '▪', '·'];
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let max: u64 = rows
        .iter()
        .map(|(_, segs)| segs.iter().sum::<u64>())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (label, segs) in rows {
        let total: u64 = segs.iter().sum();
        out.push_str(&format!("{label:<label_w$}  "));
        let mut drawn = 0usize;
        let bar_total = if max > 0 {
            ((total as f64 / max as f64) * width as f64).round() as usize
        } else {
            0
        };
        for (i, seg) in segs.iter().enumerate() {
            let seg_w = if total > 0 {
                ((*seg as f64 / total as f64) * bar_total as f64).round() as usize
            } else {
                0
            };
            let seg_w = seg_w.min(bar_total - drawn.min(bar_total));
            out.push_str(&GLYPHS[i % GLYPHS.len()].to_string().repeat(seg_w));
            drawn += seg_w;
        }
        out.push_str(&" ".repeat(width.saturating_sub(drawn)));
        out.push_str(&format!(" {total}\n"));
    }
    out.push_str("legend: ");
    for (i, name) in segment_names.iter().enumerate() {
        if i > 0 {
            out.push_str("  ");
        }
        out.push(GLYPHS[i % GLYPHS.len()]);
        out.push(' ');
        out.push_str(name);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_max() {
        let s = bars(&[("x", 1.0), ("yy", 2.0)], 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("█████ "), "{s}");
        assert!(lines[1].contains("██████████ "), "{s}");
        // Labels aligned.
        assert!(lines[0].starts_with("x "));
        assert!(lines[1].starts_with("yy"));
    }

    #[test]
    fn bars_handle_zero_max() {
        let s = bars(&[("a", 0.0)], 5);
        assert!(s.contains("a  "));
        assert!(!s.contains('█'));
    }

    #[test]
    fn stacked_bars_sum_and_legend() {
        let s = stacked_bars(
            &["data", "meta"],
            &[("A", vec![5, 5]), ("B", vec![20, 0])],
            20,
        );
        assert!(s.contains("A"));
        assert!(s.contains(" 10\n"), "{s}");
        assert!(s.contains(" 20\n"), "{s}");
        assert!(s.contains("legend: █ data  ▓ meta"));
        // B's bar is twice A's total.
        let a_line = s.lines().next().unwrap();
        let b_line = s.lines().nth(1).unwrap();
        let count = |l: &str, c: char| l.chars().filter(|x| *x == c).count();
        assert_eq!(count(b_line, '█'), 20);
        assert_eq!(count(a_line, '█') + count(a_line, '▓'), 10);
    }

    #[test]
    fn custom_formatter() {
        let s = bars_with(&[("t", 1234.0)], 4, |v| format!("{v:.0} cyc"));
        assert!(s.contains("1234 cyc"));
    }
}
