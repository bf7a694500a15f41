// The paper's §V stencil study (copied from brew_stencil::programs so the
// benchmark owns its inputs): the generic Figure-4 `apply`, the §V.B grouped
// variant, the hand-written stencil, and the sweeps that drive them.
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

struct Q { int dx; int dy; };
struct G { double f; int np; struct Q q[4]; };
struct SG { int gs; struct G g[2]; };
struct SG sg5 = {2, {{-1.0, 1, {{0, 0}, {0, 0}, {0, 0}, {0, 0}}},
                     {0.25, 4, {{-1, 0}, {1, 0}, {0, -1}, {0, 1}}}}};

double apply_grouped(double* m, int xs, struct SG* s) {
    double v = 0.0;
    for (int gi = 0; gi < s->gs; gi++) {
        struct G* g = &s->g[gi];
        double t = 0.0;
        for (int i = 0; i < g->np; i++) {
            struct Q* q = &g->q[i];
            t += m[q->dx + xs * q->dy];
        }
        v += g->f * t;
    }
    return v;
}

double apply_manual(double* m, int xs) {
    return 0.25 * (m[-1] + m[1] + m[-xs] + m[xs]) - m[0];
}

typedef double (*app3_t)(double*, int, struct S*);
typedef double (*app2_t)(double*, int);

void sweep_generic(double* m1, double* m2, int xs, int ys) {
    for (int y = 1; y < ys - 1; y++)
        for (int x = 1; x < xs - 1; x++)
            m2[y * xs + x] = apply(&m1[y * xs + x], xs, &s5);
}

void sweep_ptr3(double* m1, double* m2, int xs, int ys, app3_t fp) {
    for (int y = 1; y < ys - 1; y++)
        for (int x = 1; x < xs - 1; x++)
            m2[y * xs + x] = fp(&m1[y * xs + x], xs, &s5);
}

void sweep_ptr2(double* m1, double* m2, int xs, int ys, app2_t fp) {
    for (int y = 1; y < ys - 1; y++)
        for (int x = 1; x < xs - 1; x++)
            m2[y * xs + x] = fp(&m1[y * xs + x], xs);
}

void sweep_manual_inline(double* m1, double* m2, int xs, int ys) {
    for (int y = 1; y < ys - 1; y++)
        for (int x = 1; x < xs - 1; x++) {
            int i = y * xs + x;
            m2[i] = 0.25 * (m1[i - 1] + m1[i + 1] + m1[i - xs] + m1[i + xs]) - m1[i];
        }
}
