from waringtk.cli import main

main()
