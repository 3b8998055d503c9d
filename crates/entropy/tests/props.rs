//! Property-based tests: entropy bounds and clustering laws, and the
//! differential properties that hold the sorted-slice, once-per-distinct-core
//! forms to the whole-text `HashSet` forms they replaced (detkit harness).

use std::collections::HashSet;

use detkit::prop::{bools, f64s, just, one_of, usizes, vec_of, words_of, zip, zip3, Gen};
use detkit::{prop_assert, prop_assert_eq, prop_check};
use unisem_entropy::cluster::{equivalent, signature, Signature};
use unisem_entropy::{
    auroc, discrete_semantic_entropy, predictive_entropy, semantic_entropy_rao, ClusterConfig,
    EntropyEstimator, EntropyReport, SemanticCluster,
};
use unisem_slm::{GenConfig, Generation, Slm, SupportedAnswer, TEMPLATES};
use unisem_text::normalize::{is_stopword, stem};
use unisem_text::tokenize::{tokenize, tokenize_words, TokenKind};

/// Whole answers: paraphrases of one core, contradictions of it, empty and
/// blank strings, pure numbers, negations, non-ASCII words, repeated words,
/// mixed case.
const ANSWERS: &[&str] = &[
    "sales rose twenty percent",
    "The answer is sales rose twenty percent.",
    "Based on the data, sales rose 20%.",
    "sales rose 20% according to the records.",
    "sales rose 5%",
    "Sales did not rise 20%",
    "sales never rose",
    "revenue declined slightly",
    "it cannot be determined",
    "",
    "   ",
    "42",
    "42.",
    "1,234",
    "1234",
    "-15",
    "17 42",
    "no",
    "No.",
    "café prices rose",
    "Café PRICES rose rose rose",
    "naïve 概念 résumé",
    "the of and",
    "Symptoms include fever, cough and fatigue",
    "fatigue and cough and fever",
    "fever",
];

/// Cores the sampler wraps in its own paraphrase templates, and cores that
/// probe a template's edges: blank, a leading sign, a number, word or joiner
/// left open at the end, non-ASCII, and template text itself.
const CORES: &[&str] = &[
    "sales rose 20%",
    "sales fell 3%",
    "42 units",
    "Product Alpha is not reliable",
    "café prices rose",
    "1,234",
    "",
    " \t",
    "-15",
    "+3",
    "sales rose 42",
    "3.",
    "1,",
    "x-",
    "it'",
    "naïve 概念 \u{212a}elvin",
    "42",
    "The answer is 42.",
];

fn pick(pool: &'static [&'static str]) -> Gen<String> {
    usizes(0, pool.len() - 1).map(|i| pool[*i].to_string())
}

/// Up to eleven answers drawn from a pool of at most five texts, so verbatim
/// repeats are the rule; the pool mixes [`ANSWERS`] with generated words.
fn arb_answers() -> Gen<Vec<String>> {
    let text = one_of(vec![pick(ANSWERS), pick(ANSWERS), words_of("abcdeXY", 1, 3, 0, 4)]);
    zip(&vec_of(&text, 1, 5), &vec_of(&usizes(0, 4), 1, 11))
        .map(|(pool, picks)| picks.iter().map(|p| pool[p % pool.len()].clone()).collect())
}

fn refs(answers: &[String]) -> Vec<&str> {
    answers.iter().map(String::as_str).collect()
}

/// Greedy single-pass clustering over the crate's public `signature` and
/// `equivalent`, one signature per answer: the clusters the laws below are
/// stated over. The crate clusters once per distinct text, and only inside
/// `EntropyEstimator::measure_generations`; `clusters_match_oracle` holds
/// both to the oracle.
fn cluster_answers(answers: &[&str], config: &ClusterConfig) -> Vec<SemanticCluster> {
    let mut clusters: Vec<SemanticCluster> = Vec::new();
    for (i, answer) in answers.iter().enumerate() {
        let sig = signature(answer);
        match clusters.iter_mut().find(|c| equivalent(&c.signature, &sig, config)) {
            Some(c) => c.member_indices.push(i),
            None => clusters.push(SemanticCluster { member_indices: vec![i], signature: sig }),
        }
    }
    clusters
        .sort_by(|a, b| b.len().cmp(&a.len()).then(a.member_indices[0].cmp(&b.member_indices[0])));
    clusters
}

/// Generations whose texts are `answers`, each with its own core and
/// log-probability, so a report over them tells the clusters' members
/// apart.
fn generations(answers: &[String]) -> Vec<Generation> {
    let gens = answers.iter().enumerate().map(|(i, text)| Generation {
        text: text.clone(),
        core: format!("core {i}"),
        log_prob: -0.37 * (i + 1) as f64,
        source_index: None,
    });
    gens.collect()
}

/// The crate's report over `gens` under `config`.
fn report(gens: &[Generation], config: &ClusterConfig) -> EntropyReport {
    let mut estimator = EntropyEstimator::new(Slm::default());
    estimator.cluster_config = *config;
    estimator.measure_generations(gens)
}

// ---------------------------------------------------------------------------
// Oracles: `signature`, `equivalent`, `cluster_answers` and
// `lexical_variance` as they were while each sample was tokenized three times
// and every set was a `HashSet` — copied, not shared, so the crate's own
// forms cannot drift with them.
// ---------------------------------------------------------------------------

const TEMPLATE_FILLER: &[&str] = &[
    "answer",
    "based",
    "data",
    "according",
    "records",
    "appears",
    "available",
    "evidence",
    "from",
    "seems",
    "likely",
];

const NEGATIONS: &[&str] = &["not", "no", "never", "cannot", "n't", "without", "none"];

fn jaccard_oracle<T: std::hash::Hash + Eq>(a: &[T], b: &[T]) -> f64 {
    let sa: HashSet<&T> = a.iter().collect();
    let sb: HashSet<&T> = b.iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

fn signature_oracle(text: &str) -> Signature {
    let mut content = Vec::new();
    let mut numbers = Vec::new();
    let mut negated = false;
    for t in tokenize(text) {
        match t.kind {
            TokenKind::Number => numbers.push(t.text.replace(',', "")),
            TokenKind::Word => {
                let lower = t.text.to_lowercase();
                if NEGATIONS.contains(&lower.as_str()) {
                    negated = true;
                    continue;
                }
                if is_stopword(&lower) || TEMPLATE_FILLER.contains(&lower.as_str()) {
                    continue;
                }
                content.push(stem(&lower));
            }
            TokenKind::Punct => {}
        }
    }
    content.sort();
    content.dedup();
    numbers.sort();
    Signature { content, numbers, negated }
}

fn equivalent_oracle(a: &Signature, b: &Signature, config: &ClusterConfig) -> bool {
    if a.negated != b.negated {
        return false;
    }
    if !a.numbers.is_empty() && !b.numbers.is_empty() && a.numbers != b.numbers {
        return false;
    }
    if a.content.is_empty() && b.content.is_empty() {
        return a.numbers == b.numbers;
    }
    let sa: HashSet<&String> = a.content.iter().collect();
    let sb: HashSet<&String> = b.content.iter().collect();
    if !sa.is_empty() && !sb.is_empty() && (sa.is_subset(&sb) || sb.is_subset(&sa)) {
        return true;
    }
    jaccard_oracle(&a.content, &b.content) >= config.min_jaccard
}

fn cluster_answers_oracle(answers: &[&str], config: &ClusterConfig) -> Vec<SemanticCluster> {
    let sigs: Vec<Signature> = answers.iter().map(|a| signature_oracle(a)).collect();
    let mut clusters: Vec<SemanticCluster> = Vec::new();
    for (i, sig) in sigs.iter().enumerate() {
        match clusters.iter_mut().find(|c| equivalent_oracle(&c.signature, sig, config)) {
            Some(c) => c.member_indices.push(i),
            None => {
                clusters.push(SemanticCluster { member_indices: vec![i], signature: sig.clone() })
            }
        }
    }
    clusters
        .sort_by(|a, b| b.len().cmp(&a.len()).then(a.member_indices[0].cmp(&b.member_indices[0])));
    clusters
}

fn lexical_variance_oracle(answers: &[&str]) -> f64 {
    if answers.len() < 2 {
        return 0.0;
    }
    let token_sets: Vec<Vec<String>> = answers.iter().map(|a| tokenize_words(a)).collect();
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..token_sets.len() {
        for j in i + 1..token_sets.len() {
            total += jaccard_oracle(&token_sets[i], &token_sets[j]);
            pairs += 1;
        }
    }
    1.0 - total / pairs as f64
}

/// `EntropyEstimator::measure_generations` as it was, over the oracle forms.
fn report_oracle(gens: &[Generation], config: &ClusterConfig) -> EntropyReport {
    let texts: Vec<&str> = gens.iter().map(|g| g.text.as_str()).collect();
    let clusters = cluster_answers_oracle(&texts, config);
    let log_probs: Vec<f64> = gens.iter().map(|g| g.log_prob).collect();
    EntropyReport {
        n_samples: gens.len(),
        n_clusters: clusters.len(),
        semantic_entropy: semantic_entropy_rao(&clusters, &log_probs),
        discrete_semantic_entropy: discrete_semantic_entropy(&clusters, gens.len()),
        predictive_entropy: predictive_entropy(&log_probs),
        lexical_variance: lexical_variance_oracle(&texts),
        top_answer: clusters
            .first()
            .and_then(|c| c.member_indices.first())
            .map(|&i| gens[i].core.clone()),
    }
}

/// Thresholds on both sides of the default, and the two ends: at 0 every
/// same-polarity pair with compatible numbers merges, above 1 only
/// containment does.
fn arb_config() -> Gen<ClusterConfig> {
    usizes(0, 4).map(|i| ClusterConfig { min_jaccard: [0.0, 0.34, 0.5, 1.0, 1.01][*i] })
}

// Signatures and the pairwise verdict are what they were: every generated
// answer against every other and against all of `ANSWERS`, both ways round.
prop_check!(equivalent_matches_oracle, zip(&arb_answers(), &arb_config()), |t| {
    let (answers, config) = t;
    for a in answers {
        let sa = signature(a);
        prop_assert_eq!(&sa, &signature_oracle(a));
        for b in answers.iter().map(String::as_str).chain(ANSWERS.iter().copied()) {
            let sb = signature(b);
            for (x, y) in [(&sa, &sb), (&sb, &sa)] {
                prop_assert_eq!(
                    equivalent(x, y, config),
                    equivalent_oracle(x, y, config),
                    "{:?} vs {:?}",
                    a,
                    b
                );
            }
        }
    }
    Ok(())
});

// Same clusters, same members in the same order, same representatives —
// from the public pieces, and from the crate's once-per-distinct-text pass
// as the report shows them: their count, the top cluster's first member
// and, every sample weighing its own probability, the Rao entropy.
prop_check!(clusters_match_oracle, zip(&arb_answers(), &arb_config()), |t| {
    let (answers, config) = t;
    let texts = refs(answers);
    let oracle = cluster_answers_oracle(&texts, config);
    prop_assert_eq!(cluster_answers(&texts, config), oracle.clone());
    let gens = generations(answers);
    let (got, want) = (report(&gens, config), report_oracle(&gens, config));
    prop_assert_eq!(got.n_clusters, oracle.len());
    prop_assert_eq!(got.top_answer, want.top_answer);
    prop_assert_eq!(got.semantic_entropy.to_bits(), want.semantic_entropy.to_bits());
    Ok(())
});

// The Jaccard table over distinct texts sums to the same bits as 45 fresh
// hash-set Jaccards.
prop_check!(lexical_variance_matches_oracle, arb_answers(), |answers| {
    let variance = report(&generations(answers), &ClusterConfig::default()).lexical_variance;
    prop_assert_eq!(variance.to_bits(), lexical_variance_oracle(&refs(answers)).to_bits());
    Ok(())
});

// The whole report over arbitrary generations: texts that repeat, cores that
// differ from their texts, any log-probabilities.
prop_check!(
    report_matches_oracle,
    zip3(&arb_answers(), &vec_of(&f64s(-6.0, 0.0), 11, 11), &arb_config()),
    |t| {
        let (answers, log_probs, config) = t;
        let gens: Vec<Generation> = answers
            .iter()
            .zip(log_probs)
            .enumerate()
            .map(|(i, (text, &log_prob))| Generation {
                text: text.clone(),
                core: format!("core {i}"),
                log_prob,
                source_index: None,
            })
            .collect();
        let mut estimator = EntropyEstimator::new(Slm::default());
        estimator.cluster_config = *config;
        let report = estimator.measure_generations(&gens);
        let oracle = report_oracle(&gens, config);
        prop_assert_eq!(report.lexical_variance.to_bits(), oracle.lexical_variance.to_bits());
        prop_assert_eq!(report, oracle);
        Ok(())
    }
);

// The whole report over what the sampler really produces: one core under six
// templates when the evidence is strong, hallucinations when it is not.
prop_check!(
    sampled_report_matches_oracle,
    zip3(
        &vec_of(&zip(&pick(CORES), &f64s(0.0, 6.0)), 0, 4),
        &words_of("abcdefgh", 1, 6, 1, 5),
        &zip(&usizes(0, 2), &bools())
    ),
    |t| {
        let (evidence, query, (temperature, paraphrase)) = t;
        let evidence: Vec<SupportedAnswer> =
            evidence.iter().map(|(core, support)| SupportedAnswer::new(core, *support)).collect();
        let slm = Slm::default();
        let gens = slm.sample_answers(
            query,
            &evidence,
            &GenConfig {
                n_samples: 10,
                temperature: [0.0, 1.0, 2.5][*temperature],
                paraphrase: *paraphrase,
                ..GenConfig::default()
            },
        );
        let estimator = EntropyEstimator::new(slm);
        prop_assert_eq!(
            estimator.measure_generations(&gens),
            report_oracle(&gens, &estimator.cluster_config)
        );
        Ok(())
    }
);

/// How a generation is built: the core its text wraps, the template, and
/// the core it is labelled with.
type Recipe = (usize, usize, usize);

/// Recipes drawn from a pool of at most four, so texts repeat; most are
/// labelled with their own core, some with another, and two always-eligible
/// recipes reach `The answer is 42.` from two different (core, template)
/// pairs.
fn arb_recipes() -> Gen<Vec<Recipe>> {
    let core = usizes(0, CORES.len() - 1);
    let template = usizes(0, TEMPLATES.len() - 1);
    let own = zip(&core, &template).map(|&(c, t)| (c, t, c));
    let mislabelled = zip3(&core, &template, &core).map(|&r| r);
    let core_of = |text| CORES.iter().position(|c| *c == text).unwrap_or(0);
    let (forty_two, wrapped) = (core_of("42"), core_of("The answer is 42."));
    let twins = one_of(vec![just((forty_two, 1, forty_two)), just((wrapped, 0, wrapped))]);
    let recipe = one_of(vec![own.clone(), own, mislabelled, twins]);
    zip(&vec_of(&recipe, 1, 4), &vec_of(&usizes(0, 3), 1, 11))
        .map(|(pool, picks)| picks.iter().map(|p| pool[p % pool.len()]).collect())
}

// The whole report over generations built from (core, template) pairs —
// correctly labelled, mislabelled, and one text reached from two pairs —
// equals the report from analysing every text whole.
prop_check!(
    composed_report_matches_oracle,
    zip3(&arb_recipes(), &vec_of(&f64s(-6.0, 0.0), 11, 11), &arb_config()),
    |t| {
        let (recipes, log_probs, config) = t;
        let gens: Vec<Generation> = recipes
            .iter()
            .zip(log_probs)
            .map(|(&(core, template, label), &log_prob)| {
                let (prefix, suffix) = TEMPLATES[template];
                Generation {
                    text: format!("{prefix}{}{suffix}", CORES[core]),
                    core: CORES[label].to_string(),
                    log_prob,
                    source_index: None,
                }
            })
            .collect();
        let report = report(&gens, config);
        let oracle = report_oracle(&gens, config);
        prop_assert_eq!(report.lexical_variance.to_bits(), oracle.lexical_variance.to_bits());
        prop_assert_eq!(report, oracle);
        Ok(())
    }
);

// Clusters partition the answers: every index appears exactly once.
prop_check!(clusters_partition, arb_answers(), |answers| {
    let refs: Vec<&str> = answers.iter().map(String::as_str).collect();
    let clusters = cluster_answers(&refs, &ClusterConfig::default());
    let mut seen = vec![false; answers.len()];
    for c in &clusters {
        for &i in &c.member_indices {
            prop_assert!(!seen[i], "index {} in two clusters", i);
            seen[i] = true;
        }
    }
    prop_assert!(seen.iter().all(|&x| x));
    Ok(())
});

// Identical answers always form a single cluster.
prop_check!(
    identical_answers_one_cluster,
    zip(&words_of("abcdefgh", 2, 8, 1, 4), &usizes(1, 7)),
    |t| {
        let (s, n) = t;
        let answers: Vec<String> = std::iter::repeat(s.clone()).take(*n).collect();
        let refs: Vec<&str> = answers.iter().map(String::as_str).collect();
        let clusters = cluster_answers(&refs, &ClusterConfig::default());
        prop_assert_eq!(clusters.len(), 1);
        Ok(())
    }
);

// Discrete semantic entropy lies in [0, ln n].
prop_check!(entropy_bounds, arb_answers(), |answers| {
    let refs: Vec<&str> = answers.iter().map(String::as_str).collect();
    let clusters = cluster_answers(&refs, &ClusterConfig::default());
    let e = discrete_semantic_entropy(&clusters, answers.len());
    prop_assert!(e >= -1e-12);
    prop_assert!(e <= (answers.len() as f64).ln() + 1e-9);
    Ok(())
});

// Rao entropy with uniform log-probs equals discrete entropy.
prop_check!(rao_equals_discrete_under_uniform, arb_answers(), |answers| {
    let refs: Vec<&str> = answers.iter().map(String::as_str).collect();
    let clusters = cluster_answers(&refs, &ClusterConfig::default());
    let lp = (1.0 / answers.len() as f64).ln();
    let log_probs = vec![lp; answers.len()];
    let rao = semantic_entropy_rao(&clusters, &log_probs);
    let disc = discrete_semantic_entropy(&clusters, answers.len());
    prop_assert!((rao - disc).abs() < 1e-9, "{rao} vs {disc}");
    Ok(())
});

// Lexical variance lies in [0, 1].
prop_check!(lexical_variance_bounds, arb_answers(), |answers| {
    let v = report(&generations(answers), &ClusterConfig::default()).lexical_variance;
    prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v));
    Ok(())
});

// AUROC is flip-symmetric: negating the scores mirrors it around 0.5.
prop_check!(auroc_symmetry, zip(&vec_of(&f64s(0.0, 1.0), 2, 19), &vec_of(&bools(), 2, 19)), |t| {
    let (scores, flips) = t;
    let n = scores.len().min(flips.len());
    let scores = &scores[..n];
    let labels = &flips[..n];
    let a = auroc(scores, labels);
    let negated: Vec<f64> = scores.iter().map(|s| -s).collect();
    let b = auroc(&negated, labels);
    prop_assert!((a + b - 1.0).abs() < 1e-9, "{a} + {b} != 1");
    Ok(())
});
