//! Experiment harness: every table/figure-equivalent claim of the tutorial
//! (see DESIGN.md's per-experiment index) has a function here that
//! regenerates it. The `reproduce` binary prints them; EXPERIMENTS.md
//! records the outputs next to the paper's claims.

pub mod experiments;

/// One experiment's regenerated "table".
#[derive(Debug, Clone)]
pub struct Report {
    pub id: &'static str,
    pub title: &'static str,
    /// The tutorial claim this reproduces (slide reference included).
    pub claim: &'static str,
    /// Table rows, already formatted.
    pub rows: Vec<String>,
}

impl Report {
    pub fn print(&self) {
        println!("== {} — {}", self.id, self.title);
        println!("   claim: {}", self.claim);
        for r in &self.rows {
            println!("   {r}");
        }
        println!();
    }
}

/// All experiments as `(id, runner)` pairs, in id order.
#[allow(clippy::type_complexity)] // a function-pointer table is the point
pub fn all_experiments() -> Vec<(&'static str, fn() -> Report)> {
    use experiments::*;
    vec![
        ("e01", relational::e01_expected_surprise as fn() -> Report),
        ("e02", relational::e02_cn_explosion),
        ("e03", graphs::e03_gst_slide_example),
        ("e04", xmlx::e04_slca_complexity),
        ("e05", graphs::e05_graph_engines),
        ("e06", relational::e06_topk_strategies),
        ("e07", relational::e07_spark),
        ("e08", ambiguity::e08_query_cleaning),
        ("e09", ambiguity::e09_xclean_guarantee),
        ("e10", ambiguity::e10_tastier),
        ("e11", formsx::e11_participation),
        ("e12", xmlx::e12_ntc),
        ("e13", formsx::e13_precis),
        ("e14", formsx::e14_form_selection),
        ("e15", explorex::e15_facets),
        ("e16", ambiguity::e16_keywordpp),
        ("e17", evalx::e17_inex),
        ("e18", evalx::e18_axioms),
        ("e19", graphs::e19_hub_index),
        ("e20", graphs::e20_blinks),
        ("e21", relational::e21_rdbms_power),
        ("e22", relational::e22_parallel),
        ("e23", relational::e23_mesh),
        ("e24", xmlx::e24_xreal),
        ("e25", xmlx::e25_xseek),
        ("e26", xmlx::e26_snippets),
        ("e27", explorex::e27_differentiation),
        ("e28", explorex::e28_clustering),
        ("e29", explorex::e29_table_analysis),
        ("e30", explorex::e30_text_cube),
        ("e31", explorex::e31_data_clouds),
        ("e32", explorex::e32_query_expansion),
        ("e33", ambiguity::e33_pipeline),
        ("e34", graphs::e34_semantics_zoo),
        ("e35", extensions::e35_iqp),
        ("e36", extensions::e36_xpath_inference),
        ("e37", extensions::e37_interconnection),
        ("e38", extensions::e38_db_selection),
        ("e39", extensions::e39_timebound),
        ("e40", extensions::e40_proximity),
    ]
}

/// Look up one experiment by id (`e01` … `e40`).
pub fn experiment_by_id(id: &str) -> Option<fn() -> Report> {
    all_experiments()
        .into_iter()
        .find(|(eid, _)| *eid == id)
        .map(|(_, f)| f)
}
