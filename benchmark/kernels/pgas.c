// The mini PGAS library of the paper's motivation (copied from
// brew_pgas::PGAS_PROGRAM): a block-distributed array read through a generic
// global-to-local translation with a locality check on every access.
struct Dist { int nnodes; int blocksz; int mynode; };
struct Dist dist = {1, 1, 0};

double remote_fetch(double* storage, int idx) {
    return storage[idx];
}

double gread(double* storage, struct Dist* d, int i) {
    int node = i / d->blocksz;
    int off = i - node * d->blocksz;
    int idx = node * d->blocksz + off;
    if (node == d->mynode) {
        return storage[idx];
    }
    return remote_fetch(storage, idx);
}

double gsum(double* storage, struct Dist* d, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += gread(storage, d, i);
    }
    return s;
}
