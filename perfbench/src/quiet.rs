//! Measuring around hypervisor steal.
//!
//! On a shared virtual machine the hypervisor sometimes runs other guests
//! while ours wants the CPU; the guest kernel counts that as steal time.
//! A stolen stretch slows training and, far more, request latency, and it
//! says nothing about the program. The benchmark therefore reads steal
//! around every burst of requests and reports the latency of the bursts
//! the hypervisor disturbed least. The selection uses only the steal
//! counter, never the measured values.

/// Indices of the `share` of `steal` entries with the least steal (at
/// least one), in ascending index order. Ties go to the entry whose
/// neighbours, up to `radius` on each side, had the least steal in total,
/// then to the earlier entry.
pub fn quietest(steal: &[f64], share: f64, radius: usize) -> Vec<usize> {
    let keep = ((steal.len() as f64 * share).ceil() as usize).clamp(1, steal.len().max(1));
    let around = |i: usize| -> f64 {
        steal[i.saturating_sub(radius)..(i + radius + 1).min(steal.len())].iter().sum()
    };
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| {
        steal[a].total_cmp(&steal[b]).then(around(a).total_cmp(&around(b))).then(a.cmp(&b))
    });
    let mut chosen: Vec<usize> = order.into_iter().take(keep).collect();
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_least_stolen_share_in_index_order() {
        let steal = [0.3, 0.0, 0.1, 0.0, 0.2];
        assert_eq!(quietest(&steal, 0.5, 0), vec![1, 2, 3]);
        assert_eq!(quietest(&steal, 0.0, 0), vec![1]);
        assert_eq!(quietest(&steal, 1.0, 0), vec![0, 1, 2, 3, 4]);
        assert!(quietest(&[], 0.5, 1).is_empty());
    }

    #[test]
    fn breaks_ties_by_the_steal_around_an_entry() {
        let steal = [0.2, 0.0, 0.2, 0.0, 0.0, 0.0, 0.1, 0.0];
        // Entry 4 sits among quiet neighbours, entry 1 among stolen ones;
        // entries 5 and 7 tie on their neighbours and 5 comes first.
        assert_eq!(quietest(&steal, 0.25, 1), vec![4, 5]);
        assert_eq!(quietest(&steal, 0.25, 0), vec![1, 3]);
    }
}
