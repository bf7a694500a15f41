// §V.C: the failed `makeDynamic` attempt (copied from
// brew_stencil::programs::MAKE_DYNAMIC_PROGRAM). The compiler's
// iteration-space transformation leaves a counter starting at the known
// constant 0, so the rewriter still unrolls the whole sweep: one long trace,
// one large CFG.
struct P { double f; int dx; int dy; };
struct S { int ps; struct P p[5]; };
struct S s5 = {5, {{-1.0, 0, 0}, {0.25, -1, 0}, {0.25, 1, 0},
                   {0.25, 0, -1}, {0.25, 0, 1}}};

double apply(double* m, int xs, struct S* s) {
    double v = 0.0;
    for (int i = 0; i < s->ps; i++) {
        struct P* p = &s->p[i];
        v += p->f * m[p->dx + xs * p->dy];
    }
    return v;
}

int makeDynamic(int x) { return x; }

void sweep_dynamic_transformed(double* m1, double* m2, int xs, int ys) {
    int y0 = makeDynamic(1);
    int x0 = makeDynamic(1);
    for (int j = 0; j < ys - 1 - y0; j++) {
        int y = j + y0;
        for (int i = 0; i < xs - 1 - x0; i++) {
            int x = i + x0;
            m2[y * xs + x] = apply(&m1[y * xs + x], xs, &s5);
        }
    }
}
