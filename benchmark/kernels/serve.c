// The serving kernels (copied from the C5 study): `madd` is the served
// family, one straight-line variant per known trip count `b`; `churn` is the
// sibling the writer republishes and invalidates to keep the index swapping.
int madd(int x, int b) {
    int acc = 0;
    for (int i = 0; i < b; i++) {
        int k = (i * 3 + b) * (i * 5 + 7);
        acc = acc + x + k + i;
    }
    return acc;
}

int churn(int x, int b) {
    int acc = 0;
    for (int i = 0; i < b; i++) acc = acc + x * 2 + i;
    return acc;
}
