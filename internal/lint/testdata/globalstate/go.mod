module fix

go 1.22
