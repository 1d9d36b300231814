"""Four ways to encode a permutation as a sub-diagonal sequence.

Every permutation of n letters is encoded by a sequence (c_1, ..., c_n) with
0 <= c_i <= n - i, four different ways: the Lehmer code counts inversions
started at each position, the inverse code is the Lehmer code of the inverse,
the major code tracks how maj drops as small letters are erased, and the
saillance code reads positions relative to left-to-right maxima.  Each map is
a bijection onto the same set of sequences, and each is driven by a single
"insertion" permutation tau that predicts the new first entry when a fresh
smallest letter is inserted into a word.
"""

from permcodes import (
    FAMILIES,
    acceptability_witness,
    format_code,
    format_permutation,
    insert_one_at,
    inv,
    inverse,
    lehmer_code,
    lehmer_decode,
    maj,
    parse_permutation,
    sorted_code,
    tau_s,
)


def main() -> None:
    sigma = parse_permutation('531962487')
    print(f'sigma = {format_permutation(sigma)}')
    print(f'  Lc = {format_code(lehmer_code(sigma))}   (sum = inv = {inv(sigma)})')
    for name in ('invcode', 'scode', 'majcode'):
        family = FAMILIES[name]
        code = family.encode(sigma)
        print(f'  {name:>7} = {format_code(code)}   sum = {sum(code)}')
    print(f'  inv(sigma) = {inv(sigma)}, maj(sigma) = {maj(sigma)},'
          f' inv(sigma^-1) = {inv(inverse(sigma))}')
    print()

    # Every family decodes back to sigma; the Lehmer map does too.
    assert lehmer_decode(lehmer_code(sigma)) == sigma
    for family in FAMILIES.values():
        assert family.decode(family.encode(sigma)) == sigma
    print('decode(encode(sigma)) == sigma for all four maps')
    print()

    # Sorted codes are what equidistribution is about: different permutations
    # of the same descent class can share the sorted multiset of code letters.
    print(f'sorted saillance code: {format_code(sorted_code(FAMILIES["scode"].encode(sigma)))}')
    print()

    # The insertion step.  Inserting the new smallest letter into beta at
    # slot k prepends one predictable letter to the code: tau(beta)(k).
    beta = (3, 1, 4, 2)
    scode = FAMILIES['scode']
    print(f'beta = {format_permutation(beta)},  tau_S(beta) = {tau_s(beta)}')
    for k in range(len(beta) + 1):
        word = insert_one_at(beta, k)
        code = scode.encode(word)
        assert code[0] == tau_s(beta)[k]
        assert code[1:] == scode.encode(beta)
        print(f'  insert 1 at slot {k}: {format_permutation(word)}'
              f'  Sc = {format_code(code)}  (new letter {code[0]})')
    print()

    # A family whose tau respects prefix sets under insertion is "acceptable":
    # its code letters can be built one insertion at a time in any order.
    for name in ('invcode', 'scode', 'majcode'):
        acceptable = acceptability_witness(FAMILIES[name], 5) is None
        print(f'  {name} acceptable through n=5: {acceptable}')


if __name__ == '__main__':
    main()
