//! Gadget labeling (Step II).
//!
//! A gadget heuristically inherits the label of the program it was sliced
//! from: if any of its *statement* lines is one of the program's flawed lines
//! (per the dataset manifest), it is marked vulnerable. The paper notes this
//! can mislabel gadgets whose statements merely look like vulnerable ones;
//! `relabel_suspicious` implements the k-fold-driven manual-check hook that
//! narrows those down.

use crate::types::{CodeGadget, LabeledGadget};
use std::collections::HashSet;

/// Labels one gadget against the flawed lines of its source program.
///
/// `flaw_lines` holds 1-based line numbers of vulnerable statements (mini-C
/// programs are single-file, so lines are globally unique).
pub fn label_gadget(gadget: &CodeGadget, flaw_lines: &HashSet<u32>) -> LabeledGadget {
    LabeledGadget {
        gadget: gadget.clone(),
        vulnerable: covers_flaw(gadget.stmt_locations(), flaw_lines),
    }
}

/// The labeling rule on its own: whether any of a gadget's statement
/// locations ([`CodeGadget::stmt_locations`] or
/// [`crate::GadgetView::stmt_locations`]) is a flawed line.
pub fn covers_flaw<'a>(
    mut stmt_locations: impl Iterator<Item = (&'a str, u32)>,
    flaw_lines: &HashSet<u32>,
) -> bool {
    stmt_locations.any(|(_, line)| flaw_lines.contains(&line))
}

/// Labels a batch of gadgets.
pub fn label_all(gadgets: &[CodeGadget], flaw_lines: &HashSet<u32>) -> Vec<LabeledGadget> {
    gadgets
        .iter()
        .map(|g| label_gadget(g, flaw_lines))
        .collect()
}

/// The Step-II re-labeling hook: given per-gadget false-positive counts
/// accumulated across k-fold rounds, returns the indices of gadgets whose
/// labels deserve (simulated) manual review — those misclassified in at
/// least `threshold` rounds.
pub fn relabel_suspicious(fp_counts: &[u32], threshold: u32) -> Vec<usize> {
    fp_counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c >= threshold)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Category, GadgetKind, GadgetLine, LineOrigin};

    fn gadget(lines: &[(u32, LineOrigin)]) -> CodeGadget {
        CodeGadget {
            kind: GadgetKind::PathSensitive,
            category: Category::Fc,
            key_func: "f".into(),
            key_line: lines.first().map(|l| l.0).unwrap_or(1),
            key_name: "strncpy".into(),
            lines: lines
                .iter()
                .map(|&(line, origin)| GadgetLine {
                    func: "f".into(),
                    line,
                    tokens: vec!["tok".into()],
                    origin,
                })
                .collect(),
        }
    }

    #[test]
    fn gadget_covering_flaw_line_is_vulnerable() {
        let g = gadget(&[(2, LineOrigin::Stmt), (5, LineOrigin::Stmt)]);
        let flaws: HashSet<u32> = [5].into_iter().collect();
        assert!(label_gadget(&g, &flaws).vulnerable);
        let flaws: HashSet<u32> = [9].into_iter().collect();
        assert!(!label_gadget(&g, &flaws).vulnerable);
    }

    #[test]
    fn delimiter_lines_do_not_trigger_label() {
        let g = gadget(&[(2, LineOrigin::Stmt), (5, LineOrigin::RangeClose)]);
        let flaws: HashSet<u32> = [5].into_iter().collect();
        assert!(!label_gadget(&g, &flaws).vulnerable);
    }

    #[test]
    fn relabel_threshold() {
        let idx = relabel_suspicious(&[0, 3, 1, 5], 3);
        assert_eq!(idx, vec![1, 3]);
    }
}
