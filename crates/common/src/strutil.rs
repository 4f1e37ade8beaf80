//! String-distance utilities backing query cleaning and auto-completion.

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
///
/// Two-row dynamic program: `O(|a|·|b|)` time, `O(min)` space. Operates on
/// Unicode scalar values, not bytes.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Damerau–Levenshtein distance (adds adjacent transposition), the error
/// model the noisy-channel speller uses: `datbase → database` is distance 1.
#[allow(clippy::needless_range_loop)] // the DP recurrence reads best with indices
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let n = a.len();
    let m = b.len();
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    // Three-row DP (restricted Damerau / optimal string alignment).
    let mut d = vec![vec![0usize; m + 1]; n + 1];
    for (i, row) in d.iter_mut().enumerate() {
        row[0] = i;
    }
    for j in 0..=m {
        d[0][j] = j;
    }
    for i in 1..=n {
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut v = (d[i - 1][j] + 1)
                .min(d[i][j - 1] + 1)
                .min(d[i - 1][j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                v = v.min(d[i - 2][j - 2] + 1);
            }
            d[i][j] = v;
        }
    }
    d[n][m]
}

/// Length (in chars) of the longest common prefix of `a` and `b`.
pub fn common_prefix_len(a: &str, b: &str) -> usize {
    a.chars().zip(b.chars()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn rand_string(rng: &mut Rng, alphabet: &[char], max_len: usize) -> String {
        let len = rng.gen_index(max_len + 1);
        (0..len).map(|_| *rng.choose(alphabet)).collect()
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("datbase", "database"), 1);
    }

    #[test]
    fn damerau_counts_transposition_once() {
        assert_eq!(levenshtein("ipda", "ipad"), 2);
        assert_eq!(damerau_levenshtein("ipda", "ipad"), 1);
        assert_eq!(damerau_levenshtein("abc", "abc"), 0);
        assert_eq!(damerau_levenshtein("", "ab"), 2);
    }

    #[test]
    fn prefix_len() {
        assert_eq!(common_prefix_len("sigmod", "sigir"), 3);
        assert_eq!(common_prefix_len("", "a"), 0);
        assert_eq!(common_prefix_len("same", "same"), 4);
    }

    #[test]
    fn levenshtein_symmetric() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..200 {
            let a = rand_string(&mut rng, &['a', 'b', 'c'], 8);
            let b = rand_string(&mut rng, &['a', 'b', 'c'], 8);
            assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn levenshtein_identity() {
        let mut rng = Rng::seed_from_u64(2);
        let alphabet: Vec<char> = ('a'..='z').collect();
        for _ in 0..200 {
            let a = rand_string(&mut rng, &alphabet, 10);
            assert_eq!(levenshtein(&a, &a), 0, "{a:?}");
        }
    }

    #[test]
    fn damerau_le_levenshtein() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..200 {
            let a = rand_string(&mut rng, &['a', 'b', 'c'], 8);
            let b = rand_string(&mut rng, &['a', 'b', 'c'], 8);
            assert!(
                damerau_levenshtein(&a, &b) <= levenshtein(&a, &b),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn triangle_inequality() {
        let mut rng = Rng::seed_from_u64(4);
        for _ in 0..200 {
            let a = rand_string(&mut rng, &['a', 'b'], 6);
            let b = rand_string(&mut rng, &['a', 'b'], 6);
            let c = rand_string(&mut rng, &['a', 'b'], 6);
            assert!(
                levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c),
                "{a:?} {b:?} {c:?}"
            );
        }
    }
}
