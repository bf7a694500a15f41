// Small library routines (copied from the V1/V2 corpora): constant-trip
// loops, constant folding through multiply/divide, unknown branches that
// fork the trace, and a kept call beside folded known memory.
int hits;
void tick(int f) { hits += 1; }

int poly(int x, int n) {
    int r = 1;
    for (int i = 0; i < n; i++) r *= x;
    return r;
}

int scale(int x, int k) { return x * k + k / 3; }

int clamp(int x, int lo, int hi) {
    if (x < lo) return lo;
    if (x > hi) return hi;
    return x;
}

int sum(int* p, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) s += p[i];
    return s;
}

int dotk(int* xs, int* ys, int n) {
    tick(0);
    int d = 0;
    for (int i = 0; i < n; i++) d += xs[i] * ys[i];
    return d;
}

void nop() { }
