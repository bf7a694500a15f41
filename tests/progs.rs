//! The random mini-C program generator of the differential suite: an
//! expression AST over `a`, `b`, `c`, `t` and a function body built from
//! locals, an if/else, two bounded loops and arithmetic. Its own file so that
//! `tests/differential.rs` and the verifier's oracle test
//! (`crates/verify/src/mem.rs`) draw from one corpus; both include it by
//! path.

use proptest::prelude::*;

/// A tiny expression AST rendered to mini-C over variables a, b, c, t.
#[derive(Debug, Clone)]
pub enum E {
    A,
    B,
    C,
    T,
    Lit(i8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    // Division by a never-zero expression.
    DivSafe(Box<E>, Box<E>),
    Lt(Box<E>, Box<E>),
    Eq(Box<E>, Box<E>),
    Neg(Box<E>),
}

impl E {
    pub fn render(&self) -> String {
        match self {
            E::A => "a".into(),
            E::B => "b".into(),
            E::C => "c".into(),
            E::T => "t".into(),
            E::Lit(v) => format!("({v})"),
            E::Add(x, y) => format!("({} + {})", x.render(), y.render()),
            E::Sub(x, y) => format!("({} - {})", x.render(), y.render()),
            E::Mul(x, y) => format!("({} * {})", x.render(), y.render()),
            E::DivSafe(x, y) => {
                format!("({} / (({}) % 13 + 14))", x.render(), y.render())
            }
            E::Lt(x, y) => format!("({} < {})", x.render(), y.render()),
            E::Eq(x, y) => format!("({} == {})", x.render(), y.render()),
            E::Neg(x) => format!("(-{})", x.render()),
        }
    }
}

pub fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        Just(E::A),
        Just(E::B),
        Just(E::C),
        Just(E::T),
        any::<i8>().prop_map(E::Lit),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Add(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Sub(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Mul(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::DivSafe(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Lt(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Eq(Box::new(x), Box::new(y))),
            inner.prop_map(|x| E::Neg(Box::new(x))),
        ]
    })
}

/// A random function body: locals, an if/else, a bounded loop, a
/// `madd`-shaped loop, arithmetic.
#[derive(Debug, Clone)]
pub struct Prog {
    init: E,
    cond: E,
    then_e: E,
    else_e: E,
    loop_n: u8,
    loop_e: E,
    /// Trip count, step constant and per-iteration term of the second
    /// loop: each iteration adds the term and a constant of its counter to
    /// `t`, so a known count unrolls into one straight-line sum whose
    /// immediates the cleanup folds.
    madd_n: u8,
    madd_k: i8,
    madd_e: E,
    ret: E,
}

pub fn arb_prog() -> impl Strategy<Value = Prog> {
    (
        (
            arb_expr(),
            arb_expr(),
            arb_expr(),
            arb_expr(),
            0u8..6,
            arb_expr(),
            arb_expr(),
        ),
        (0u8..9, any::<i8>(), arb_expr()),
    )
        .prop_map(
            |((init, cond, then_e, else_e, loop_n, loop_e, ret), (madd_n, madd_k, madd_e))| Prog {
                init,
                cond,
                then_e,
                else_e,
                loop_n,
                loop_e,
                madd_n,
                madd_k,
                madd_e,
                ret,
            },
        )
}

impl Prog {
    pub fn render(&self) -> String {
        format!(
            r#"
            int f(int a, int b, int c) {{
                int t = 0;
                t = {init};
                if ({cond}) {{
                    t = t + {then_e};
                }} else {{
                    t = t - {else_e};
                }}
                for (int i = 0; i < {n}; i++) {{
                    t += {loop_e};
                }}
                for (int j = 0; j < {m}; j++) {{
                    t = t + {madd_e} + (j * 3 + ({k})) * (j * 5 + 7) + j;
                }}
                return t + {ret};
            }}
            "#,
            init = self.init.render(),
            cond = self.cond.render(),
            then_e = self.then_e.render(),
            else_e = self.else_e.render(),
            n = self.loop_n,
            loop_e = self.loop_e.render(),
            m = self.madd_n,
            k = self.madd_k,
            madd_e = self.madd_e.render(),
            ret = self.ret.render(),
        )
    }
}
