//! The semantic domains and denotation functions (paper §3.2–3.6, §4).

pub mod aux;
pub mod cmd_eval;
pub mod database;
pub mod domains;
pub mod expr_eval;
pub mod operator;
